package tm_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// engines enumerates the four back ends for table-driven tests.
var engines = map[string]func(*tm.System) tm.Engine{
	"eager":  eager.New,
	"lazy":   lazy.New,
	"htm":    htm.New,
	"hybrid": hybrid.New,
}

func forEachEngine(t *testing.T, fn func(t *testing.T, sys *tm.System)) {
	t.Helper()
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			fn(t, tm.NewSystem(tm.Config{}, mk))
		})
	}
}

func TestReadWriteSingleThread(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var x, y uint64
		thr.Atomic(func(tx *tm.Tx) {
			tx.Write(&x, 41)
			tx.Write(&y, tx.Read(&x)+1)
		})
		thr.Atomic(func(tx *tm.Tx) {
			if got := tx.Read(&x); got != 41 {
				t.Errorf("x = %d, want 41", got)
			}
			if got := tx.Read(&y); got != 42 {
				t.Errorf("y = %d, want 42", got)
			}
		})
	})
}

func TestReadAfterWriteSeesOwnWrite(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var x uint64 = 7
		thr.Atomic(func(tx *tm.Tx) {
			if tx.Read(&x) != 7 {
				t.Error("initial read wrong")
			}
			tx.Write(&x, 100)
			if tx.Read(&x) != 100 {
				t.Error("read-after-write did not observe own write")
			}
			tx.Write(&x, 200)
			if tx.Read(&x) != 200 {
				t.Error("second read-after-write wrong")
			}
		})
		if x != 200 {
			t.Errorf("committed value %d, want 200", x)
		}
	})
}

func TestWriteSameOrecTwice(t *testing.T) {
	// Adjacent words may or may not share an orec; writing many words in
	// one transaction exercises the owner==me fast path of TxWrite.
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		words := make([]uint64, 256)
		thr.Atomic(func(tx *tm.Tx) {
			for i := range words {
				tx.Write(&words[i], uint64(i))
			}
		})
		for i := range words {
			if words[i] != uint64(i) {
				t.Fatalf("words[%d] = %d", i, words[i])
			}
		}
	})
}

func TestAbortRollsBackWrites(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var x uint64 = 1
		tries := 0
		thr.Atomic(func(tx *tm.Tx) {
			tries++
			tx.Write(&x, 999)
			if tries == 1 {
				tx.Abort(tm.AbortExplicit)
			}
			// Second attempt must observe the rolled-back value.
			if v := tx.Read(&x); v != 999 {
				t.Errorf("attempt %d: read-after-write = %d", tries, v)
			}
		})
		if tries < 2 {
			t.Fatalf("body ran %d times, want ≥ 2", tries)
		}
		if x != 999 {
			t.Fatalf("final x = %d, want 999", x)
		}
		if sys.Stats.Sum().ExplicitAborts != 1 {
			t.Errorf("explicit aborts = %d, want 1", sys.Stats.Sum().ExplicitAborts)
		}
	})
}

func TestRestartReexecutesImmediately(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var x uint64
		tries := 0
		thr.Atomic(func(tx *tm.Tx) {
			tries++
			tx.Write(&x, uint64(tries))
			if tries < 3 {
				tx.Restart()
			}
		})
		if tries != 3 {
			t.Fatalf("tries = %d, want 3", tries)
		}
		if x != 3 {
			t.Fatalf("x = %d, want 3", x)
		}
		if sys.Stats.Sum().ExplicitRestarts != 2 {
			t.Errorf("restarts = %d, want 2", sys.Stats.Sum().ExplicitRestarts)
		}
	})
}

func TestNestedAtomicFlattens(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var x, y uint64
		outer := 0
		thr.Atomic(func(tx *tm.Tx) {
			outer++
			tx.Write(&x, 1)
			thr.Atomic(func(inner *tm.Tx) {
				if inner != tx {
					t.Error("nested transaction got a different descriptor")
				}
				inner.Write(&y, inner.Read(&x)+1)
			})
			// Inner effects must be visible to the outer continuation.
			if tx.Read(&y) != 2 {
				t.Error("outer did not see nested write")
			}
		})
		if x != 1 || y != 2 {
			t.Fatalf("x,y = %d,%d want 1,2", x, y)
		}
		if outer != 1 {
			t.Fatalf("outer ran %d times", outer)
		}
	})
}

func TestNestedAbortUnrollsEverything(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var x, y uint64
		tries := 0
		thr.Atomic(func(tx *tm.Tx) {
			tries++
			tx.Write(&x, 10)
			thr.Atomic(func(inner *tm.Tx) {
				inner.Write(&y, 20)
				if tries == 1 {
					inner.Abort(tm.AbortExplicit)
				}
			})
		})
		if tries != 2 {
			t.Fatalf("tries = %d, want 2 (inner abort must unroll outer)", tries)
		}
		if x != 10 || y != 20 {
			t.Fatalf("x,y = %d,%d", x, y)
		}
	})
}

func TestConcurrentCounter(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		const workers = 8
		const per = 2000
		var counter uint64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < per; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						tx.Write(&counter, tx.Read(&counter)+1)
					})
				}
			}()
		}
		wg.Wait()
		if counter != workers*per {
			t.Fatalf("counter = %d, want %d", counter, workers*per)
		}
	})
}

func TestBankTransferInvariant(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		const accounts = 32
		const workers = 6
		const per = 1500
		const initial = 1000
		bal := make([]uint64, accounts)
		for i := range bal {
			bal[i] = initial
		}
		var wg sync.WaitGroup
		violations := make([]int, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				thr := sys.NewThread()
				rng := uint64(id)*2654435761 + 1
				next := func(n uint64) uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng % n
				}
				for i := 0; i < per; i++ {
					from, to := next(accounts), next(accounts)
					if from == to {
						continue
					}
					if i%10 == 0 {
						// Auditor: the total must be invariant inside any
						// transaction (opacity + atomicity probe).
						thr.Atomic(func(tx *tm.Tx) {
							var sum uint64
							for a := 0; a < accounts; a++ {
								sum += tx.Read(&bal[a])
							}
							if sum != accounts*initial {
								violations[id]++
							}
						})
						continue
					}
					thr.Atomic(func(tx *tm.Tx) {
						f := tx.Read(&bal[from])
						if f == 0 {
							return
						}
						tx.Write(&bal[from], f-1)
						tx.Write(&bal[to], tx.Read(&bal[to])+1)
					})
				}
			}(w)
		}
		wg.Wait()
		for id, v := range violations {
			if v != 0 {
				t.Fatalf("worker %d observed %d balance-sum violations", id, v)
			}
		}
		var sum uint64
		for i := range bal {
			sum += bal[i]
		}
		if sum != accounts*initial {
			t.Fatalf("final sum %d, want %d", sum, accounts*initial)
		}
	})
}

func TestOpacityEqualPair(t *testing.T) {
	// Writers keep x == y; readers must never observe x != y inside a
	// transaction, even transiently (eager STM updates in place, so this
	// directly exercises per-read validation).
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		var x, y uint64
		const writers = 3
		const readers = 3
		const rounds = 4000
		var wg sync.WaitGroup
		bad := make([]int, readers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < rounds; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						v := tx.Read(&x) + 1
						tx.Write(&x, v)
						tx.Write(&y, v)
					})
				}
			}()
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < rounds; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						a := tx.Read(&x)
						b := tx.Read(&y)
						if a != b {
							bad[id]++
						}
					})
				}
			}(r)
		}
		wg.Wait()
		for id, n := range bad {
			if n != 0 {
				t.Fatalf("reader %d saw %d torn states", id, n)
			}
		}
		if x != y {
			t.Fatalf("final x=%d y=%d", x, y)
		}
	})
}

func TestAllocCommitAndAbort(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var committed []uint64
		tries := 0
		thr.Atomic(func(tx *tm.Tx) {
			tries++
			b := tx.Alloc(8)
			tx.Write(&b[0], uint64(tries))
			if tries == 1 {
				tx.Abort(tm.AbortExplicit)
			}
			committed = b
		})
		if tries != 2 {
			t.Fatalf("tries = %d", tries)
		}
		if committed[0] != 2 {
			t.Fatalf("committed alloc holds %d, want 2", committed[0])
		}
		// Free defers until commit; the block must remain readable during
		// the transaction that frees it.
		thr.Atomic(func(tx *tm.Tx) {
			if tx.Read(&committed[0]) != 2 {
				t.Error("value lost before free")
			}
			tx.Free(committed)
		})
	})
}

func TestValidateAfterRollback(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		if sys.Engine.Name() == "htm" || sys.Engine.Name() == "hybrid" {
			t.Skip("Validate is an STM-metadata operation; hardware modes skip it")
		}
		thr := sys.NewThread()
		var x uint64 = 5
		// Use a signal to stop mid-transaction with the read set intact.
		probe := &validateProbe{}
		thr.Atomic(func(tx *tm.Tx) {
			if probe.phase == 0 {
				_ = tx.Read(&x)
				probe.phase = 1
				panic(probe)
			}
		})
		if !probe.valid {
			t.Fatal("read set should validate with no concurrent writers")
		}
	})
}

type validateProbe struct {
	phase int
	valid bool
}

func (p *validateProbe) Handle(tx *tm.Tx) tm.Outcome {
	p.valid = tx.Sys.Engine.Validate(tx)
	return tm.OutcomeRetryNow
}

func TestUserPanicPropagatesAndCleansUp(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var x uint64 = 3
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want boom", r)
				}
			}()
			thr.Atomic(func(tx *tm.Tx) {
				tx.Write(&x, 77)
				panic("boom")
			})
		}()
		if x != 3 {
			t.Fatalf("x = %d after panic, want rollback to 3", x)
		}
		// The system must remain usable: no leaked locks or serial state.
		done := make(chan struct{})
		go func() {
			thr2 := sys.NewThread()
			thr2.Atomic(func(tx *tm.Tx) { tx.Write(&x, 8) })
			close(done)
		}()
		<-done
		if x != 8 {
			t.Fatalf("post-panic transaction failed, x = %d", x)
		}
	})
}

func TestHTMCapacityFallsBackToSerial(t *testing.T) {
	sys := tm.NewSystem(tm.Config{HTMWriteCap: 8, HTMReadCap: 16}, htm.New)
	thr := sys.NewThread()
	words := make([]uint64, 64)
	thr.Atomic(func(tx *tm.Tx) {
		for i := range words {
			tx.Write(&words[i], uint64(i)+1)
		}
	})
	for i := range words {
		if words[i] != uint64(i)+1 {
			t.Fatalf("words[%d] = %d", i, words[i])
		}
	}
	if sys.Stats.Sum().CapacityAborts == 0 {
		t.Error("expected at least one capacity abort")
	}
	if sys.Stats.Sum().Serializations == 0 {
		t.Error("expected a serialized execution")
	}
}

func TestHTMSpuriousAbortsStillCommit(t *testing.T) {
	sys := tm.NewSystem(tm.Config{HTMSpuriousAbortPerMille: 200}, htm.New)
	const workers = 4
	const per = 500
	var counter uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			for i := 0; i < per; i++ {
				thr.Atomic(func(tx *tm.Tx) {
					tx.Write(&counter, tx.Read(&counter)+1)
				})
			}
		}()
	}
	wg.Wait()
	if counter != workers*per {
		t.Fatalf("counter = %d, want %d", counter, workers*per)
	}
	if sys.Stats.Sum().SpuriousAborts == 0 {
		t.Error("expected spurious aborts at 20% per access")
	}
}

func TestHTMSerialSectionsExclusive(t *testing.T) {
	// Force every transaction serial via zero max retries and verify
	// mutual exclusion of serial sections with a non-transactional probe.
	sys := tm.NewSystem(tm.Config{HTMMaxRetries: -1}, htm.New)
	var inside, maxInside atomic.Int64
	var counter uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			for i := 0; i < 300; i++ {
				thr.Atomic(func(tx *tm.Tx) {
					cur := inside.Add(1)
					for {
						max := maxInside.Load()
						if cur <= max || maxInside.CompareAndSwap(max, cur) {
							break
						}
					}
					tx.Write(&counter, tx.Read(&counter)+1)
					inside.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	if counter != 1200 {
		t.Fatalf("counter = %d", counter)
	}
	if m := maxInside.Load(); m != 1 {
		t.Fatalf("serial sections overlapped: max concurrency %d", m)
	}
}

func TestStatsCommitCounts(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		var x uint64
		for i := 0; i < 5; i++ {
			thr.Atomic(func(tx *tm.Tx) { tx.Write(&x, uint64(i)) })
		}
		for i := 0; i < 3; i++ {
			thr.Atomic(func(tx *tm.Tx) { _ = tx.Read(&x) })
		}
		if got := sys.Stats.Sum().Commits; got != 5 {
			t.Errorf("writer commits = %d, want 5", got)
		}
		if got := sys.Stats.Sum().ROCommits; got != 3 {
			t.Errorf("read-only commits = %d, want 3", got)
		}
	})
}

func TestPostCommitHookFiresOnWritesOnly(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		var fired int
		var sawStripes int
		sys.PostCommit = func(t *tm.Thread, writeOrecs, writeStripes []uint32) {
			fired++
			sawStripes += len(writeStripes)
		}
		thr := sys.NewThread()
		var x uint64
		thr.Atomic(func(tx *tm.Tx) { tx.Write(&x, 1) })
		thr.Atomic(func(tx *tm.Tx) { _ = tx.Read(&x) })
		thr.Atomic(func(tx *tm.Tx) { tx.Write(&x, 2) })
		if fired != 2 {
			t.Fatalf("PostCommit fired %d times, want 2", fired)
		}
		if sawStripes != 2 {
			t.Fatalf("PostCommit saw %d write stripes across 2 writer commits, want 2", sawStripes)
		}
	})
}

func TestWriteSet(t *testing.T) {
	var ws tm.WriteSet
	a, b := new(uint64), new(uint64)
	ws.Put(a, 1, 10)
	ws.Put(b, 2, 20)
	ws.Put(a, 3, 10) // overwrite
	if ws.Len() != 2 {
		t.Fatalf("len = %d, want 2", ws.Len())
	}
	if v, ok := ws.Get(a); !ok || v != 3 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if v, ok := ws.Get(b); !ok || v != 2 {
		t.Fatalf("Get(b) = %d,%v", v, ok)
	}
	ws.Reset()
	if ws.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	if _, ok := ws.Get(a); ok {
		t.Fatal("reset left index entries")
	}
}

func TestOldValueFirstEntryWins(t *testing.T) {
	tx := &tm.Tx{}
	a := new(uint64)
	tx.Undo = append(tx.Undo, tm.UndoEntry{Addr: a, Old: 1}, tm.UndoEntry{Addr: a, Old: 2})
	if v, ok := tx.OldValue(a); !ok || v != 1 {
		t.Fatalf("OldValue = %d,%v want 1,true (oldest entry is the committed value)", v, ok)
	}
	if _, ok := tx.OldValue(new(uint64)); ok {
		t.Fatal("OldValue hit for unwritten address")
	}
}

func TestStatsAttemptsAndAbortRate(t *testing.T) {
	var c tm.Counters
	if c.AbortRate() != 0 {
		t.Fatalf("empty AbortRate = %v", c.AbortRate())
	}
	c = tm.Counters{Commits: 6, ROCommits: 2, Aborts: 2}
	if got := c.Attempts(); got != 10 {
		t.Fatalf("Attempts = %d, want 10", got)
	}
	if got := c.AbortRate(); got != 0.2 {
		t.Fatalf("AbortRate = %v, want 0.2", got)
	}
}
