package core_test

// Tests for the orec filter inside the per-stripe wake scan: of the waiters
// a commit finds on its write stripes it examines only those sleeping on an
// orec slot its write set shares. The filter may never skip a waiter whose
// word was written — on any engine path — and should skip the rest without
// running their predicates or, for Retry-Orig sleepers, waking them. Run
// under -race in CI: a waiter's slots are written by its owner and read by
// committers under the shard lock.

import (
	"testing"
	"time"

	"tmsync/internal/condvar"
	"tmsync/internal/core"
	"tmsync/internal/tm"
)

// wordsByOrec groups the words of a fresh array, four per orec of the
// table, by the orec slot covering them: collisions and same-stripe
// neighbours are then easy to find.
func wordsByOrec(sys *tm.System) map[uint32][]*uint64 {
	backing := make([]uint64, 4*sys.Table.Len())
	out := make(map[uint32][]*uint64)
	for i := range backing {
		idx := sys.Table.IndexOf(&backing[i])
		out[idx] = append(out[idx], &backing[i])
	}
	return out
}

// sameStripeWords returns n words on one stripe, each covered by an orec
// of its own.
func sameStripeWords(t *testing.T, sys *tm.System, n int) []*uint64 {
	t.Helper()
	var out []*uint64
	for idx, words := range wordsByOrec(sys) {
		if sys.Table.StripeOf(idx) == 0 {
			if out = append(out, words[0]); len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("found only %d of %d distinct orecs on stripe 0", len(out), n)
	return nil
}

// awaitSleeper parks a goroutine in Await on addrs until one of them is
// non-zero; the returned channel closes when it has woken and committed.
func awaitSleeper(sys *tm.System, addrs ...*uint64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.NewThread().Atomic(func(tx *tm.Tx) {
			for _, a := range addrs {
				if tx.Read(a) != 0 {
					return
				}
			}
			core.Await(tx, addrs...)
		})
	}()
	return done
}

func waitDone(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: the sleeper never woke", what)
	}
}

// scanCost runs commit and reports how many predicates its wake scan
// evaluated and how many waiters it signalled. The PostCommit hook runs on
// the committing thread before Atomic returns, so both are final.
func scanCost(sys *tm.System, commit func()) (checks, signals uint64) {
	before := sys.Stats.Sum()
	commit()
	after := sys.Stats.Sum()
	return after.WakeChecks - before.WakeChecks, after.BatchedSignals - before.BatchedSignals
}

// TestWakeFilterSkipsSameStripeNeighbour: two waiters share a stripe but
// not an orec. A write to one's word must examine and wake exactly that
// one; the stripe index alone would have examined both.
func TestWakeFilterSkipsSameStripeNeighbour(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		ws := sameStripeWords(t, sys, 2)
		first, second := awaitSleeper(sys, ws[0]), awaitSleeper(sys, ws[1])
		waitCond(t, "both waiters asleep", func() bool { return cs.WaitingLen() == 2 })

		writer := sys.NewThread()
		checks, signals := scanCost(sys, func() {
			writer.Atomic(func(tx *tm.Tx) { tx.Write(ws[0], 1) })
		})
		if checks != 1 || signals != 1 {
			t.Errorf("write to one of two same-stripe words: %d predicates evaluated, %d waiters signalled, want 1 and 1", checks, signals)
		}
		waitDone(t, "written word", first)
		if n := cs.WaitingLen(); n != 1 {
			t.Fatalf("%d waiters left, want the neighbour still parked", n)
		}

		writer.Atomic(func(tx *tm.Tx) { tx.Write(ws[1], 1) })
		waitDone(t, "neighbour", second)
	})
}

// TestWakeFilterExaminesOrecCollision: the filter compares orec slots, not
// addresses, so a write to another word under the waiter's orec cannot be
// ruled out — the waiter is examined — and wakeup being value-based, it is
// not woken.
func TestWakeFilterExaminesOrecCollision(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var waited, other *uint64
		for _, words := range wordsByOrec(sys) {
			if len(words) >= 2 {
				waited, other = words[0], words[1]
				break
			}
		}
		if waited == nil {
			t.Fatal("no two words share an orec")
		}
		done := awaitSleeper(sys, waited)
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })

		writer := sys.NewThread()
		checks, signals := scanCost(sys, func() {
			writer.Atomic(func(tx *tm.Tx) { tx.Write(other, 1) })
		})
		if checks != 1 || signals != 0 {
			t.Errorf("write to a word colliding on the waiter's orec: %d predicates evaluated, %d waiters signalled, want 1 and 0", checks, signals)
		}
		if n := cs.WaitingLen(); n != 1 {
			t.Fatalf("%d waiters left, want the waiter still parked", n)
		}

		writer.Atomic(func(tx *tm.Tx) { tx.Write(waited, 1) })
		waitDone(t, "waited word", done)
	})
}

// TestWakeFilterRetryWaitsetWokenByAnyWord: Retry's waitset is everything
// the attempt read, and a write to any single word of it must wake the
// waiter.
func TestWakeFilterRetryWaitsetWokenByAnyWord(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		ws := sameStripeWords(t, sys, 3)
		writer := sys.NewThread()
		for k := range ws {
			done := make(chan struct{})
			go func() {
				defer close(done)
				sys.NewThread().Atomic(func(tx *tm.Tx) {
					var sum uint64
					for _, a := range ws {
						sum += tx.Read(a)
					}
					if sum == uint64(k) {
						core.Retry(tx)
					}
				})
			}()
			waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
			checks, signals := scanCost(sys, func() {
				writer.Atomic(func(tx *tm.Tx) { tx.Write(ws[k], 1) })
			})
			if checks != 1 || signals != 1 {
				t.Errorf("write to word %d of the waitset: %d predicates evaluated, %d waiters signalled, want 1 and 1", k, checks, signals)
			}
			waitDone(t, "retry waiter", done)
		}
	})
}

// TestWakeFilterEveryWriterPathWakes: the filter trusts the write orecs a
// commit hands to the wake scan, so every way a write can commit must wake
// an Await sleeper on the word it wrote — including the paths that lock no
// orec (htm's serial mode, reached by a software restart or an irrevocable
// section) and the CondVar.Wait punctuation commit, which calls the hook
// with a capture of its own.
func TestWakeFilterEveryWriterPathWakes(t *testing.T) {
	type writerPath struct {
		name  string
		write func(sys *tm.System, word *uint64)
	}
	paths := []writerPath{
		{"software-restart", func(sys *tm.System, word *uint64) {
			sys.NewThread().Atomic(func(tx *tm.Tx) {
				if tx.Mode == tm.ModeHW {
					tx.RestartSoftware()
				}
				tx.Write(word, 1)
			})
		}},
		{"irrevocable", func(sys *tm.System, word *uint64) {
			sys.NewThread().Atomic(func(tx *tm.Tx) {
				tx.Irrevocable()
				tx.Write(word, 1)
			})
		}},
		{"condvar-wait", func(sys *tm.System, word *uint64) {
			cv := condvar.New()
			var gate uint64
			waited := make(chan struct{})
			go func() {
				defer close(waited)
				sys.NewThread().Atomic(func(tx *tm.Tx) {
					if tx.Read(&gate) == 0 {
						tx.Write(word, 1)
						cv.Wait(tx)
					}
				})
			}()
			// Let the condvar waiter go once its punctuation commit is in.
			for cv.WaitingLen() == 0 || sys.Stats.Sum().Commits == 0 {
				time.Sleep(time.Millisecond)
			}
			sys.NewThread().Atomic(func(tx *tm.Tx) { tx.Write(&gate, 1) })
			for cv.WaitingLen() != 0 {
				cv.SignalNow()
				time.Sleep(time.Millisecond)
			}
			<-waited
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
				// Neighbours on the stripe keep the filter busy: they must
				// stay asleep, the written word's sleeper must not.
				ws := sameStripeWords(t, sys, 3)
				done := awaitSleeper(sys, ws[0])
				n1, n2 := awaitSleeper(sys, ws[1]), awaitSleeper(sys, ws[2])
				waitCond(t, "waiters asleep", func() bool { return cs.WaitingLen() == 3 })

				p.write(sys, ws[0])
				waitDone(t, p.name, done)
				if n := cs.WaitingLen(); n != 2 {
					t.Errorf("%d waiters left, want the 2 neighbours", n)
				}

				release := sys.NewThread()
				release.Atomic(func(tx *tm.Tx) {
					tx.Write(ws[1], 1)
					tx.Write(ws[2], 1)
				})
				waitDone(t, "neighbour 1", n1)
				waitDone(t, "neighbour 2", n2)
			})
		})
	}
}

// TestWakeFilterLargeWaitsetIsExact: the filter stays exact past the size
// where it stops comparing every pair (256; a stripe has 1024 orecs). A
// sleeper on 300 orecs of one stripe
// is not examined by a commit to a 301st orec of that stripe, and is
// examined — and woken — by a write to any one word it read. For Retry that
// saves a predicate transaction; for Retry-Orig, whose sleepers wake on
// being examined, it is what keeps them Algorithm 1's: a filter that gave
// up would wake them on every same-stripe commit.
func TestWakeFilterLargeWaitsetIsExact(t *testing.T) {
	for _, m := range []struct {
		name    string
		engines []string
		wait    func(tx *tm.Tx)
		// checks: the sleeper double-checks its predicate in a read-only
		// commit after it is listed (Deschedule); a write before that
		// commit would be claimed by the sleeper itself, not the scan.
		checks bool
	}{
		{"retry", allEngines, core.Retry, true},
		{"retry-orig", stmEngines, core.RetryOrig, false},
	} {
		t.Run(m.name, func(t *testing.T) {
			forEach(t, m.engines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
				ws := sameStripeWords(t, sys, 301)
				read, other := ws[:300], ws[300]
				writer := sys.NewThread()
				for round, k := range []int{0, 150, 299} {
					ro := sys.Stats.Sum().ROCommits
					done := make(chan struct{})
					go func() {
						defer close(done)
						sys.NewThread().Atomic(func(tx *tm.Tx) {
							var sum uint64
							for _, a := range read {
								sum += tx.Read(a)
							}
							if sum == uint64(round) {
								m.wait(tx)
							}
						})
					}()
					waitCond(t, "sleeper parked", func() bool {
						return cs.WaitingLen() == 1 && (!m.checks || sys.Stats.Sum().ROCommits > ro)
					})

					wakeups := sys.Stats.Sum().Wakeups
					checks, signals := scanCost(sys, func() {
						writer.Atomic(func(tx *tm.Tx) { tx.Write(other, uint64(round)+1) })
					})
					if checks != 0 || signals != 0 || sys.Stats.Sum().Wakeups != wakeups || cs.WaitingLen() != 1 {
						t.Fatalf("same-stripe write sharing no orec with the sleeper: %d waiters examined, %d signalled, want 0 and 0 and the sleeper still parked", checks, signals)
					}
					checks, signals = scanCost(sys, func() {
						writer.Atomic(func(tx *tm.Tx) { tx.Write(read[k], 1) })
					})
					if checks != 1 || signals != 1 {
						t.Errorf("write to word %d of the read set: %d waiters examined, %d signalled, want 1 and 1", k, checks, signals)
					}
					waitDone(t, m.name, done)
				}
			})
		})
	}
}

// TestWakeFilterMixedSleepersOneBatch: an Await sleeper and a Retry-Orig
// sleeper parked on one word are found by the same scan of the same shard,
// and one commit to the word wakes both through one signal batch.
func TestWakeFilterMixedSleepersOneBatch(t *testing.T) {
	forEach(t, stmEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var word uint64
		awaiter := awaitSleeper(sys, &word)
		orig := make(chan struct{})
		go func() {
			defer close(orig)
			sys.NewThread().Atomic(func(tx *tm.Tx) {
				if tx.Read(&word) == 0 {
					core.RetryOrig(tx)
				}
			})
		}()
		// The Await sleeper's double-check is the only read-only commit so
		// far: once it is counted, that sleeper is past claiming itself.
		waitCond(t, "both sleepers parked", func() bool {
			return cs.WaitingLen() == 2 && sys.Stats.Sum().ROCommits >= 1
		})

		writer := sys.NewThread()
		checks, signals := scanCost(sys, func() {
			writer.Atomic(func(tx *tm.Tx) { tx.Write(&word, 1) })
		})
		if checks != 2 || signals != 2 {
			t.Errorf("one write under two sleepers: %d examined, %d signalled in the commit's batch, want 2 and 2", checks, signals)
		}
		waitDone(t, "await", awaiter)
		waitDone(t, "retry-orig", orig)
		if n := cs.WaitingLen(); n != 0 {
			t.Errorf("%d waiters left listed", n)
		}
	})
}
