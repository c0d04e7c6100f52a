package core_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmsync/internal/core"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// newSys builds a system for the named engine with condition
// synchronization enabled.
func newSys(kind string) (*tm.System, *core.CondSync) {
	var sys *tm.System
	switch kind {
	case "eager":
		sys = tm.NewSystem(tm.Config{}, eager.New)
	case "lazy":
		sys = tm.NewSystem(tm.Config{}, lazy.New)
	case "htm":
		sys = tm.NewSystem(tm.Config{}, htm.New)
	case "hybrid":
		sys = tm.NewSystem(tm.Config{}, hybrid.New)
	default:
		panic(kind)
	}
	cs := core.Enable(sys)
	return sys, cs
}

var allEngines = []string{"eager", "lazy", "htm", "hybrid"}
var stmEngines = []string{"eager", "lazy"}

func forEach(t *testing.T, kinds []string, fn func(t *testing.T, sys *tm.System, cs *core.CondSync)) {
	t.Helper()
	for _, k := range kinds {
		t.Run(k, func(t *testing.T) {
			sys, cs := newSys(k)
			fn(t, sys, cs)
		})
	}
}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	start := time.Now()
	for !cond() {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRetryBlocksUntilWrite(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var flag, out uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				v := tx.Read(&flag)
				if v == 0 {
					core.Retry(tx)
				}
				out = v
			})
			close(done)
		}()
		// The waiter must publish itself and sleep, not spin or finish.
		waitCond(t, "waiter to publish", func() bool { return cs.WaitingLen() == 1 })
		select {
		case <-done:
			t.Fatal("waiter completed with flag == 0")
		default:
		}
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 42) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never woke after the write")
		}
		if out != 42 {
			t.Fatalf("out = %d, want 42", out)
		}
		if cs.WaitingLen() != 0 {
			t.Fatalf("waiter list not drained: %d", cs.WaitingLen())
		}
	})
}

func TestRetrySilentStoreDoesNotWake(t *testing.T) {
	// Value-based validation: a silent store (same value) must not wake a
	// Retry waiter — one of the paper's advantages over lock-based retry.
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var flag uint64 // starts 0
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&flag) == 0 {
					core.Retry(tx)
				}
			})
			close(done)
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 0) }) // silent store
		select {
		case <-done:
			t.Fatal("silent store woke the waiter through to completion")
		case <-time.After(100 * time.Millisecond):
		}
		if cs.WaitingLen() != 1 {
			t.Fatal("waiter should still be (or again be) published")
		}
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 1) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("real store did not wake the waiter")
		}
	})
}

func TestAwaitOnlyNamedAddresses(t *testing.T) {
	// An Await waiter names &a; writes to unrelated b must not complete
	// it, writes to a must.
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var a, b uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&a) == 0 {
					core.Await(tx, &a)
				}
			})
			close(done)
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
		writer := sys.NewThread()
		for i := 0; i < 10; i++ {
			writer.Atomic(func(tx *tm.Tx) { tx.Write(&b, uint64(i)+1) })
		}
		select {
		case <-done:
			t.Fatal("write to unrelated address completed the Await")
		case <-time.After(100 * time.Millisecond):
		}
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&a, 9) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("write to awaited address did not wake")
		}
	})
}

func TestAwaitSeesPreTransactionValues(t *testing.T) {
	// The waitset must hold committed values even when the transaction
	// wrote the awaited address before calling Await (read-after-write
	// must not put speculative values in the waitset — §2.2.6).
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var gate, x uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				_ = tx.Read(&x)
				tx.Write(&x, 777) // speculative write, will be undone
				if tx.Read(&gate) == 0 {
					core.Await(tx, &x)
				}
			})
			close(done)
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
		// x in memory is 0 (the speculative 777 was rolled back). A writer
		// storing 0 is silent; storing nonzero wakes.
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&x, 0) })
		select {
		case <-done:
			t.Fatal("silent store woke Await (waitset held speculative value?)")
		case <-time.After(100 * time.Millisecond):
		}
		// Open the gate so the retry completes, then touch x for real.
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&gate, 1) })
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&x, 5) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never completed")
		}
	})
}

func TestWaitPredWakesOnlyWhenPredicateHolds(t *testing.T) {
	// WaitPred avoids futile wakeups: writes that do not establish the
	// predicate leave the waiter asleep even though the address changed.
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var level uint64
		atLeast5 := func(tx *tm.Tx, _ []uint64) bool { return tx.Read(&level) >= 5 }
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&level) < 5 {
					core.WaitPred(tx, atLeast5)
				}
			})
			close(done)
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
		writer := sys.NewThread()
		for v := uint64(1); v <= 4; v++ {
			writer.Atomic(func(tx *tm.Tx) { tx.Write(&level, v) })
		}
		select {
		case <-done:
			t.Fatal("woke although the predicate does not hold")
		case <-time.After(100 * time.Millisecond):
		}
		if cs.WaitingLen() != 1 {
			t.Fatal("waiter should still be published")
		}
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&level, 5) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("predicate-establishing write did not wake")
		}
	})
}

func TestWaitPredArgsMarshalled(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var x uint64
		equals := func(tx *tm.Tx, args []uint64) bool { return tx.Read(&x) == args[0] }
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&x) != 33 {
					core.WaitPred(tx, equals, 33)
				}
			})
			close(done)
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&x, 32) })
		select {
		case <-done:
			t.Fatal("woke on wrong value")
		case <-time.After(50 * time.Millisecond):
		}
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&x, 33) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("never woke on matching value")
		}
	})
}

func TestRetryNoLostWakeupRace(t *testing.T) {
	// Hammer the publish/double-check/sleep window: a writer that commits
	// immediately after the waiter's failed check must always wake it.
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		const rounds = 200
		var token uint64
		waiterThr := sys.NewThread()
		writerThr := sys.NewThread()
		for i := 0; i < rounds; i++ {
			done := make(chan struct{})
			go func() {
				waiterThr.Atomic(func(tx *tm.Tx) {
					if tx.Read(&token) == 0 {
						core.Retry(tx)
					}
					tx.Write(&token, 0) // consume
				})
				close(done)
			}()
			writerThr.Atomic(func(tx *tm.Tx) { tx.Write(&token, 1) })
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: lost wakeup", i)
			}
		}
	})
}

func TestRetryOrigBlocksAndWakes(t *testing.T) {
	forEach(t, stmEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var flag uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&flag) == 0 {
					core.RetryOrig(tx)
				}
			})
			close(done)
		}()
		waitCond(t, "deschedule", func() bool { return sys.Stats.Sum().Deschedules >= 1 })
		select {
		case <-done:
			t.Fatal("completed while flag == 0")
		default:
		}
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 1) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("orig retry never woke")
		}
	})
}

func TestRetryOrigWakesOnSilentStore(t *testing.T) {
	// The documented contrast with value-based Retry: the original
	// mechanism intersects lock metadata, so a silent store *does* wake
	// the sleeper (futile wakeup); the re-executed transaction then
	// sleeps again and overall progress still requires a real change.
	forEach(t, stmEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var flag uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&flag) == 0 {
					core.RetryOrig(tx)
				}
			})
			close(done)
		}()
		waitCond(t, "first sleep", func() bool { return sys.Stats.Sum().Deschedules >= 1 })
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 0) }) // silent store
		waitCond(t, "futile wakeup and re-sleep", func() bool {
			return sys.Stats.Sum().Wakeups >= 1 && sys.Stats.Sum().Deschedules >= 2
		})
		select {
		case <-done:
			t.Fatal("silent store let the transaction complete")
		default:
		}
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 3) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("real store never woke orig retry")
		}
	})
}

func TestManyWaitersBroadcastSemantics(t *testing.T) {
	// Our mechanisms "essentially broadcast" (§2.4.1): after one
	// production every consumer whose predicate holds is woken; exactly
	// one succeeds per element, the rest re-sleep — but with enough
	// elements all waiters finish.
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		const waiters = 6
		var pool uint64
		var wg sync.WaitGroup
		var got atomic.Uint64
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				thr.Atomic(func(tx *tm.Tx) {
					v := tx.Read(&pool)
					if v == 0 {
						core.Retry(tx)
					}
					tx.Write(&pool, v-1)
				})
				got.Add(1)
			}()
		}
		waitCond(t, "all waiters asleep", func() bool { return cs.WaitingLen() == waiters })
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&pool, waiters) })
		ch := make(chan struct{})
		go func() { wg.Wait(); close(ch) }()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d waiters completed", got.Load(), waiters)
		}
		if pool != 0 {
			t.Fatalf("pool = %d, want 0", pool)
		}
	})
}

func TestDeschedulePreservesAllocationsUntilWake(t *testing.T) {
	// Captured memory: a transaction allocates, reads the allocation, and
	// retries; the waiter's wake test must be able to read the block while the
	// waiter sleeps (i.e. it was not recycled), and the block is undone
	// after wakeup.
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var gate uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				b := tx.Alloc(4)
				tx.Write(&b[0], 11)
				_ = tx.Read(&b[0])
				if tx.Read(&gate) == 0 {
					core.Retry(tx)
				}
			})
			close(done)
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
		writer := sys.NewThread()
		// Wake repeatedly with gate still closed: each futile wakeup
		// re-evaluates the waitset over the captured block.
		for i := 0; i < 5; i++ {
			writer.Atomic(func(tx *tm.Tx) { tx.Write(&gate, 0) })
			time.Sleep(2 * time.Millisecond)
		}
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&gate, 1) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never completed")
		}
	})
}

// TestHTMRetrySerializesForSoftwareMode: every Deschedule mechanism under
// HTM restarts a hardware attempt into the instrumented serial mode before
// it sleeps (no escape actions in hardware) — WaitPred included, with no
// straight-from-the-abort path.
func TestHTMRetrySerializesForSoftwareMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		wait func(tx *tm.Tx, x *uint64)
	}{
		{"retry", func(tx *tm.Tx, _ *uint64) { core.Retry(tx) }},
		{"await", func(tx *tm.Tx, x *uint64) { core.Await(tx, x) }},
		{"waitpred", func(tx *tm.Tx, x *uint64) {
			core.WaitPred(tx, func(tx *tm.Tx, _ []uint64) bool { return tx.Read(x) != 0 })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, cs := newSys("htm")
			var x uint64
			done := make(chan struct{})
			go func() {
				thr := sys.NewThread()
				thr.Atomic(func(tx *tm.Tx) {
					if tx.Read(&x) == 0 {
						tc.wait(tx, &x)
					}
				})
				close(done)
			}()
			waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
			if sys.Stats.Sum().Serializations == 0 {
				t.Errorf("%s under HTM slept without the serial software mode", tc.name)
			}
			writer := sys.NewThread()
			writer.Atomic(func(tx *tm.Tx) { tx.Write(&x, 1) })
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("never woke")
			}
		})
	}
}

func TestHybridRetryAvoidsSerialization(t *testing.T) {
	// The HyTM extension (§2.2.6): Retry switches a hardware transaction
	// to a concurrent software transaction, so descheduling never
	// suspends system-wide concurrency.
	sys, cs := newSys("hybrid")
	var x uint64
	done := make(chan struct{})
	go func() {
		thr := sys.NewThread()
		thr.Atomic(func(tx *tm.Tx) {
			if tx.Read(&x) == 0 {
				core.Retry(tx)
			}
		})
		close(done)
	}()
	waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
	if sys.Stats.Sum().Serializations != 0 {
		t.Error("hybrid Retry serialized; the STM fallback should be concurrent")
	}
	writer := sys.NewThread()
	writer.Atomic(func(tx *tm.Tx) { tx.Write(&x, 1) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("never woke")
	}
}

func TestForPanicsWithoutEnable(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, eager.New)
	thr := sys.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when condition sync is not enabled")
		}
	}()
	thr.Atomic(func(tx *tm.Tx) {
		core.Retry(tx)
	})
}

func TestDescheduleStats(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var x uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&x) == 0 {
					core.Retry(tx)
				}
			})
			close(done)
		}()
		waitCond(t, "desched", func() bool { return sys.Stats.Sum().Deschedules == 1 })
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&x, 1) })
		<-done
		if sys.Stats.Sum().Wakeups != 1 {
			t.Errorf("wakeups = %d, want 1", sys.Stats.Sum().Wakeups)
		}
	})
}

// TestEmptyReadSetPanicsInsteadOfParking: a transaction that asks to wait
// having read nothing sleeps on no orec any commit could write. Each
// mechanism must report that to Atomic's caller as a panic — raised while
// the attempt holds a written orec (eager) or the serial word (htm, whose
// Retry and Await re-execute in serial mode) — and leave nothing behind:
// no listed waiter, and a following writer to the same word commits.
func TestEmptyReadSetPanicsInsteadOfParking(t *testing.T) {
	for _, m := range []struct {
		name    string
		engines []string
		wait    func(tx *tm.Tx)
	}{
		{"Retry", allEngines, core.Retry},
		{"Await", allEngines, func(tx *tm.Tx) { core.Await(tx) }},
		{"RetryOrig", stmEngines, core.RetryOrig},
	} {
		t.Run(m.name, func(t *testing.T) {
			forEach(t, m.engines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
				var word uint64
				got := func() (r any) {
					defer func() { r = recover() }()
					sys.NewThread().Atomic(func(tx *tm.Tx) {
						tx.Write(&word, 1)
						m.wait(tx)
					})
					return nil
				}()
				if want := "core: " + m.name + " with an empty read set can never be woken"; got != want {
					t.Fatalf("Atomic's caller recovered %v, want %q", got, want)
				}
				if n := cs.WaitingLen(); n != 0 {
					t.Errorf("%d waiters left listed", n)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					sys.NewThread().Atomic(func(tx *tm.Tx) { tx.Write(&word, 2) })
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("a following writer wedged: the panic left an orec or the serial word held")
				}
				if word != 2 {
					t.Errorf("word = %d, want 2 (the panicking attempt's write rolled back, the next one's committed)", word)
				}
			})
		})
	}
}
