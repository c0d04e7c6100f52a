package tm_test

// The orec protocol lives once, in orec.go and hw.go; these tests state
// its contract once and run it through every way an engine composes it:
// eager, lazy, htm, hybrid-HW and hybrid-SW. Each scenario is
// single-goroutine — conflicting commits are issued from inside the
// victim's transaction body on a second thread handle — so every
// interleaving is exact.

import (
	"slices"
	"testing"
	"time"

	"tmsync/internal/clock"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/locktable"
	"tmsync/internal/sem"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// protocolPath is one engine mode the shared protocol runs under.
type protocolPath struct {
	name     string
	mk       func(*tm.System) tm.Engine
	mode     tm.Mode // the mode attempts must execute in
	software bool    // force the software mode (hybrid's STM, htm's serial)

	irrevocable bool // the body asks for an irrevocable section first
}

var protocolPaths = []protocolPath{
	{name: "eager", mk: eager.New, mode: tm.ModeSTM},
	{name: "lazy", mk: lazy.New, mode: tm.ModeSTM},
	{name: "htm", mk: htm.New, mode: tm.ModeHW},
	{name: "hybrid-HW", mk: hybrid.New, mode: tm.ModeHW},
	{name: "hybrid-SW", mk: hybrid.New, mode: tm.ModeSTM, software: true},
}

// enter steers the attempt onto the path under test: hybrid's software
// mode is reached by restarting the hardware attempt, so callers count
// attempts after it.
func (p protocolPath) enter(t *testing.T, tx *tm.Tx) {
	t.Helper()
	if p.software && tx.Mode == tm.ModeHW {
		tx.RestartSoftware()
	}
	if tx.Mode != p.mode {
		t.Fatalf("attempt runs in mode %v, want %v", tx.Mode, p.mode)
	}
	if tx.Attempts > 32 {
		// A broken protocol typically shows as a version the clock never
		// reaches: fail instead of re-executing forever.
		t.Fatalf("attempt %d: the transaction cannot make progress", tx.Attempts)
	}
}

func forEachProtocolPath(t *testing.T, fn func(t *testing.T, p protocolPath, cfg tm.Config)) {
	forEachPath(t, protocolPaths, fn)
}

// forEachPath names each subtest <path>/global after the commit clock every
// System runs, so the IDs match those the suite reported when it also swept
// the benchmark-only clocks.
func forEachPath(t *testing.T, paths []protocolPath, fn func(t *testing.T, p protocolPath, cfg tm.Config)) {
	for _, p := range paths {
		t.Run(p.name+"/"+string(clock.Global), func(t *testing.T) {
			// A generous hardware budget: a too-new read costs an attempt,
			// and the hardware paths must stay in hardware.
			fn(t, p, tm.Config{HTMMaxRetries: 8})
		})
	}
}

// distinctWords returns n words covered by n different orecs that also
// take n different signature bits, so that a commit to one never disturbs
// another's version nor waits on an attempt that read only another.
func distinctWords(t *testing.T, sys *tm.System, n int) []*uint64 {
	t.Helper()
	pool := make([]uint64, 64)
	seen := map[uint32]bool{}
	var out []*uint64
	for i := range pool {
		if bit := sys.Table.IndexOf(&pool[i]) % (tm.SigWords * 64); !seen[bit] {
			seen[bit] = true
			out = append(out, &pool[i])
			if len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("no %d words on distinct orecs among %d", n, len(pool))
	return nil
}

func assertNoOrecLocked(t *testing.T, sys *tm.System) {
	t.Helper()
	for idx := 0; idx < sys.Table.Len(); idx++ {
		if locktable.Locked(sys.Table.Get(uint32(idx))) {
			t.Fatalf("orec %d left locked", idx)
		}
	}
}

// TestProtocolExtension: a transaction reads a, a concurrent writer
// commits b, and the transaction then reads the too-new b. With no
// timestamp extension (the "off" case, the only one the protocol has)
// Appendix A's TxRead aborts there on every path, and the re-execution
// reads the new b: the writer's commit advanced the clock to b's version.
func TestProtocolExtension(t *testing.T) {
	forEachProtocolPath(t, func(t *testing.T, p protocolPath, cfg tm.Config) {
		t.Run("off", func(t *testing.T) {
			sys := tm.NewSystem(cfg, p.mk)
			t1, t2 := sys.NewThread(), sys.NewThread()
			ws := distinctWords(t, sys, 2)
			a, b := ws[0], ws[1]
			attempts, fired := 0, false
			var seenA, seenB uint64
			t1.Atomic(func(tx *tm.Tx) {
				p.enter(t, tx)
				attempts++
				seenA = tx.Read(a)
				if !fired {
					fired = true
					// t1's attempt has read only a, so the nested commit
					// to b does not wait on it.
					t2.Atomic(func(tx2 *tm.Tx) { tx2.Write(b, 7) })
				}
				seenB = tx.Read(b)
			})
			if attempts < 2 {
				t.Errorf("%d attempts, want an abort (≥2)", attempts)
			}
			if seenA != 0 || seenB != 7 {
				t.Errorf("final attempt read a=%d b=%d, want 0,7", seenA, seenB)
			}
		})
	})
}

// TestProtocolRollbackRepublishes: an attempt that aborts holding a lock
// releases it unlocked at the old version plus one, and the clock already
// covers that version when it becomes visible. The abort is forced by locking the
// second written orec out from under the attempt with a foreign owner.
func TestProtocolRollbackRepublishes(t *testing.T) {
	forEachProtocolPath(t, func(t *testing.T, p protocolPath, cfg tm.Config) {
		sys := tm.NewSystem(cfg, p.mk)
		thr := sys.NewThread()
		ws := distinctWords(t, sys, 2)
		b, c := ws[0], ws[1]
		idxB, idxC := sys.Table.IndexOf(b), sys.Table.IndexOf(c)
		// Give b's orec a history, so "old version + 1" is not trivially 1.
		thr.Atomic(func(tx *tm.Tx) { tx.Write(b, 1) })
		oldB, oldC := sys.Table.Get(idxB), sys.Table.Get(idxC)

		attempts := 0
		thr.Atomic(func(tx *tm.Tx) {
			p.enter(t, tx)
			attempts++
			switch attempts {
			case 1:
				sys.Table.Set(idxC, locktable.LockedBy(locktable.MaxOwner, locktable.Version(oldC)))
			case 2:
				want := locktable.Version(oldB) + 1
				if w := sys.Table.Get(idxB); w != locktable.UnlockedAt(want) {
					t.Errorf("released orec = %+v, want unlocked at version %d", locktable.Decode(w), want)
				}
				if now := sys.Clock.Now(); now < want {
					t.Errorf("clock = %d behind the republished version %d", now, want)
				}
				sys.Table.Set(idxC, oldC)
			}
			tx.Write(b, 2)
			tx.Write(c, 3)
		})
		if attempts < 2 || *b != 2 || *c != 3 {
			t.Fatalf("attempts=%d b=%d c=%d, want ≥2, 2, 3", attempts, *b, *c)
		}
		assertNoOrecLocked(t, sys)
	})
}

// TestProtocolVersionsStrictlyIncrease: back-to-back commits to one orec
// must publish strictly increasing versions, or ReadCommitted's
// unchanged-word recheck could miss an intervening commit.
func TestProtocolVersionsStrictlyIncrease(t *testing.T) {
	forEachProtocolPath(t, func(t *testing.T, p protocolPath, cfg tm.Config) {
		sys := tm.NewSystem(cfg, p.mk)
		thr := sys.NewThread()
		var x uint64
		idx := sys.Table.IndexOf(&x)
		prev := locktable.Version(sys.Table.Get(idx))
		for i := uint64(1); i <= 5; i++ {
			thr.Atomic(func(tx *tm.Tx) {
				p.enter(t, tx)
				tx.Write(&x, i)
			})
			v := locktable.Version(sys.Table.Get(idx))
			if v <= prev {
				t.Fatalf("commit %d published version %d, not above %d", i, v, prev)
			}
			prev = v
		}
	})
}

// TestProtocolWriteOrecsCoverWrites: the post-commit wakeup examines only
// the waiters whose waitset shares an orec slot with the write orecs the
// PostCommit hook is handed, so on every way a write can commit that set
// must hold the covering slot of every word stored to — locked or not —
// and, the filter being a product of sizes, hold it once. Beyond the
// paths the rest of this file runs, that is htm's serial mode and an
// irrevocable section on each engine.
func TestProtocolWriteOrecsCoverWrites(t *testing.T) {
	paths := append([]protocolPath{
		{name: "htm-serial", mk: htm.New, mode: tm.ModeSerial, software: true},
		{name: "eager-irrevocable", mk: eager.New, mode: tm.ModeSTM, irrevocable: true},
		{name: "lazy-irrevocable", mk: lazy.New, mode: tm.ModeSTM, irrevocable: true},
		{name: "htm-irrevocable", mk: htm.New, mode: tm.ModeSerial, irrevocable: true},
		{name: "hybrid-irrevocable", mk: hybrid.New, mode: tm.ModeSTM, irrevocable: true},
	}, protocolPaths...)
	forEachPath(t, paths, func(t *testing.T, p protocolPath, cfg tm.Config) {
		sys := tm.NewSystem(cfg, p.mk)
		var orecs []uint32
		fired := 0
		sys.PostCommit = func(_ *tm.Thread, writeOrecs []uint32) {
			fired++
			orecs = append(orecs, writeOrecs...)
		}
		ws := distinctWords(t, sys, 3)
		sys.NewThread().Atomic(func(tx *tm.Tx) {
			if p.irrevocable {
				tx.Irrevocable()
			}
			p.enter(t, tx)
			for i, w := range ws {
				tx.Write(w, uint64(i)+1)
			}
			tx.Write(ws[0], tx.Read(ws[0])+10) // a second store under a slot already held
		})
		if fired != 1 {
			t.Fatalf("PostCommit fired %d times, want 1", fired)
		}
		for i, w := range ws {
			idx := sys.Table.IndexOf(w)
			if !slices.Contains(orecs, idx) {
				t.Errorf("word %d was stored to but its orec slot %d is not in the write orecs %v", i, idx, orecs)
			}
		}
		if len(orecs) != len(ws) {
			t.Errorf("write orecs %v: %d slots recorded for %d stored words on distinct orecs", orecs, len(orecs), len(ws))
		}
	})
}

// TestProtocolReadSignsBeforeSample: a committer skips, in its quiescence
// wait, an attempt whose signature holds none of its write orecs, which is
// sound only if a read adds its orec to the signature before it samples
// it. So on every path a read that aborts at its sample — here because a
// foreign owner holds the orec — must already have signed the orec.
func TestProtocolReadSignsBeforeSample(t *testing.T) {
	forEachProtocolPath(t, func(t *testing.T, p protocolPath, cfg tm.Config) {
		sys := tm.NewSystem(cfg, p.mk)
		thr := sys.NewThread()
		x := distinctWords(t, sys, 1)[0]
		idx := sys.Table.IndexOf(x)
		old := sys.Table.Get(idx)
		attempts := 0
		thr.Atomic(func(tx *tm.Tx) {
			p.enter(t, tx)
			attempts++
			if attempts == 1 {
				sys.Table.Set(idx, locktable.LockedBy(locktable.MaxOwner, locktable.Version(old)))
				defer func() {
					r := recover()
					sys.Table.Set(idx, old)
					if r == nil {
						t.Errorf("a read of an orec a foreign owner holds did not abort")
						return
					}
					if !thr.SigMightContain(idx) {
						t.Errorf("the read aborted at its sample without orec %d in the signature", idx)
					}
					panic(r)
				}()
			}
			tx.Read(x)
		})
		if attempts < 2 {
			t.Errorf("%d attempts, want an abort (≥2)", attempts)
		}
	})
}

// TestProtocolQuiesce: a software commit waits out a live attempt that
// began before its stamp and signed one of its write orecs, and only such
// an attempt. The reader holds its attempt open on this goroutine while a
// writer on another commits to a. In the parked case the reader has run and
// then been through SemWait, which takes it out of the live set the commit
// walks; its next attempt must put it back.
func TestProtocolQuiesce(t *testing.T) {
	var software []protocolPath
	for _, p := range protocolPaths {
		if p.mode == tm.ModeSTM {
			software = append(software, p)
		}
	}
	forEachPath(t, software, func(t *testing.T, p protocolPath, cfg tm.Config) {
		for _, tc := range []struct {
			name   string
			signed bool // the reader reads a, which blocks the writer, not b
			parked bool // the reader has parked once before its attempt
		}{
			{name: "signed", signed: true},
			{name: "disjoint", signed: false},
			{name: "parked", signed: true, parked: true},
		} {
			t.Run(tc.name, func(t *testing.T) {
				sys := tm.NewSystem(cfg, p.mk)
				reader, writer := sys.NewThread(), sys.NewThread()
				ws := distinctWords(t, sys, 2)
				a, b := ws[0], ws[1]
				// commit runs the writer's commit to a on another goroutine,
				// and returned reports whether it has finished within d.
				done := make(chan tm.Mode, 1)
				commit := func() {
					go func() {
						var mode tm.Mode
						writer.Atomic(func(tx *tm.Tx) {
							if p.software && tx.Mode == tm.ModeHW {
								tx.RestartSoftware()
							}
							mode = tx.Mode
							tx.Write(a, 1)
						})
						done <- mode
					}()
				}
				returned := func(d time.Duration) bool {
					select {
					case mode := <-done:
						if mode != tm.ModeSTM {
							t.Errorf("the writer committed in mode %v, want %v", mode, tm.ModeSTM)
						}
						return true
					case <-time.After(d):
						return false
					}
				}
				if tc.parked {
					reader.Atomic(func(*tm.Tx) {})
					s := sem.New()
					s.Signal()
					sys.SemWait(reader, s)
				}
				fired, finished := false, false
				reader.Atomic(func(tx *tm.Tx) {
					p.enter(t, tx)
					if tc.signed {
						tx.Read(a)
					} else {
						tx.Read(b)
					}
					if fired {
						return
					}
					fired = true
					commit()
					if tc.signed {
						// Give the writer ample time to (wrongly) return.
						if finished = returned(50 * time.Millisecond); finished {
							t.Error("the writer's commit returned while a live earlier attempt that read a was in flight")
						}
						return
					}
					if finished = returned(5 * time.Second); !finished {
						t.Error("the writer's commit waited on a live attempt that read only b")
					}
				})
				if !finished && !returned(5*time.Second) {
					t.Fatal("the writer's commit never returned after the reader retired")
				}
				if *a != 1 {
					t.Errorf("a = %d after the writer's commit, want 1", *a)
				}
			})
		}
	})
}

// signalProbe is a Signal that counts its Handle calls and runs check, if
// set, inside each.
type signalProbe struct {
	handled int
	check   func(tx *tm.Tx)
}

func (s *signalProbe) Handle(tx *tm.Tx) {
	s.handled++
	if s.check != nil {
		s.check(tx)
	}
}

// punctuationProbe is a signalProbe raised through CommitThen, counting
// its withdrawals too.
type punctuationProbe struct {
	signalProbe
	withdrawn int
}

func (p *punctuationProbe) Withdraw() { p.withdrawn++ }

// rollbackCounter counts the Rollback calls the driver makes on an engine.
type rollbackCounter struct {
	tm.Engine
	n *int
}

func (e rollbackCounter) Rollback(tx *tm.Tx) {
	*e.n++
	e.Engine.Rollback(tx)
}

// TestProtocolPunctuation: a body that ends in CommitThen commits there,
// through the driver's one commit epilogue — its writes, its OnCommit
// actions and the PostCommit hook are all done when Handle runs, once,
// and the committed attempt is never rolled back. A punctuation whose
// commit fails validation is withdrawn instead: Withdraw runs once, Handle
// never, and the block re-executes. The failure is forced by a commit
// landing after the read: the clock moves past the attempt's start and the
// read orec to the new time.
func TestProtocolPunctuation(t *testing.T) {
	forEachProtocolPath(t, func(t *testing.T, p protocolPath, cfg tm.Config) {
		rollbacks := 0
		sys := tm.NewSystem(cfg, func(s *tm.System) tm.Engine { return rollbackCounter{p.mk(s), &rollbacks} })
		thr := sys.NewThread()
		ws := distinctWords(t, sys, 2)
		x, y := ws[0], ws[1]
		t.Run("committed", func(t *testing.T) {
			posted, actions, attempts := 0, 0, 0
			sys.PostCommit = func(*tm.Thread, []uint32) { posted++ }
			pr := &punctuationProbe{}
			thr.Atomic(func(tx *tm.Tx) {
				p.enter(t, tx)
				if attempts++; attempts > 1 {
					return
				}
				tx.Write(x, 1)
				tx.OnCommit = append(tx.OnCommit, func() { actions++ })
				before := rollbacks
				pr.check = func(*tm.Tx) {
					if *x != 1 || actions != 1 || posted != 1 {
						t.Errorf("Handle ran with x=%d, %d OnCommit actions and %d PostCommit calls done; want 1, 1, 1", *x, actions, posted)
					}
					if rollbacks != before {
						t.Errorf("the driver rolled back the attempt the punctuation committed")
					}
				}
				tx.CommitThen(pr)
			})
			if pr.handled != 1 || pr.withdrawn != 0 || attempts != 2 {
				t.Errorf("Handle ran %d times, Withdraw %d, over %d attempts; want 1, 0, 2", pr.handled, pr.withdrawn, attempts)
			}
		})
		t.Run("aborted", func(t *testing.T) {
			idx := sys.Table.IndexOf(x)
			attempts := 0
			pr := &punctuationProbe{}
			thr.Atomic(func(tx *tm.Tx) {
				p.enter(t, tx)
				attempts++
				tx.Read(x)
				tx.Write(y, uint64(attempts))
				if attempts > 1 {
					return
				}
				sys.Clock.Bump()
				sys.Table.Set(idx, locktable.UnlockedAt(sys.Clock.Now()))
				tx.CommitThen(pr)
			})
			if pr.withdrawn != 1 || pr.handled != 0 {
				t.Errorf("Withdraw ran %d times and Handle %d; want 1, 0", pr.withdrawn, pr.handled)
			}
			if attempts != 2 || *y != 2 {
				t.Errorf("attempts=%d y=%d, want the block re-executed once: 2, 2", attempts, *y)
			}
			assertNoOrecLocked(t, sys)
		})
	})
}

// TestProtocolHandlerFreshState: after any handler the body re-executes
// from its checkpoint with fresh scheduling state — its first attempt
// again, in the mode a first attempt takes, asking for neither the
// software mode nor a tagged re-execution — however the attempt that
// raised the signal left that state.
func TestProtocolHandlerFreshState(t *testing.T) {
	for _, raise := range []struct {
		name  string
		raise func(tx *tm.Tx)
	}{
		{"signal", func(*tm.Tx) { panic(&signalProbe{}) }},
		{"punctuation", func(tx *tm.Tx) { tx.CommitThen(&punctuationProbe{}) }},
	} {
		for name, mk := range engines {
			t.Run(raise.name+"/"+name, func(t *testing.T) {
				sys := tm.NewSystem(tm.Config{}, mk)
				var x uint64
				var first tm.Mode
				calls := 0
				sys.NewThread().Atomic(func(tx *tm.Tx) {
					if calls++; calls == 1 {
						first = tx.Mode
						tx.Write(&x, 1)
						tx.WantSoftware, tx.IsRetry = true, true
						raise.raise(tx)
					}
					if tx.Attempts != 1 || tx.WantSoftware || tx.IsRetry || tx.Mode != first {
						t.Errorf("after the handler: attempt %d in mode %v, WantSoftware=%v IsRetry=%v; want attempt 1 in mode %v, neither flag",
							tx.Attempts, tx.Mode, tx.WantSoftware, tx.IsRetry, first)
					}
				})
				if calls != 2 {
					t.Errorf("the body ran %d times, want 2", calls)
				}
			})
		}
	}
}
