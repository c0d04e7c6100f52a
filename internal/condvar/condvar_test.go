package condvar_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"tmsync/internal/condvar"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/locktable"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// systems builds one System per engine; hybrid's punctuation commit is a
// hardware CommitRedo.
func systems() map[string]*tm.System {
	return map[string]*tm.System{
		"eager":  tm.NewSystem(tm.Config{}, eager.New),
		"lazy":   tm.NewSystem(tm.Config{}, lazy.New),
		"htm":    tm.NewSystem(tm.Config{}, htm.New),
		"hybrid": tm.NewSystem(tm.Config{}, hybrid.New),
	}
}

func forEach(t *testing.T, fn func(t *testing.T, sys *tm.System)) {
	t.Helper()
	for name, sys := range systems() {
		t.Run(name, func(t *testing.T) { fn(t, sys) })
	}
}

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

func TestWaitSignalHandoff(t *testing.T) {
	forEach(t, func(t *testing.T, sys *tm.System) {
		cv := condvar.New()
		var ready, out uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				v := tx.Read(&ready)
				if v == 0 {
					cv.Wait(tx)
				}
				out = v
			})
			close(done)
		}()
		waitCond(t, "queued waiter", func() bool { return cv.WaitingLen() == 1 })
		sig := sys.NewThread()
		sig.Atomic(func(tx *tm.Tx) {
			tx.Write(&ready, 5)
			cv.Signal(tx)
		})
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never woke")
		}
		if out != 5 {
			t.Fatalf("out = %d, want 5", out)
		}
	})
}

func TestWaitBreaksAtomicity(t *testing.T) {
	// The defining difference from Retry: effects before the Wait commit
	// and become visible to other threads while the waiter sleeps.
	forEach(t, func(t *testing.T, sys *tm.System) {
		cv := condvar.New()
		var partial, gate uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				g := tx.Read(&gate)
				tx.Write(&partial, tx.Read(&partial)+1)
				if g == 0 {
					cv.Wait(tx)
				}
			})
			close(done)
		}()
		// The waiter is queued before its commit, so the partial effect
		// may lag the queue entry; it must appear while the waiter sleeps.
		waitCond(t, "queued waiter", func() bool { return cv.WaitingLen() == 1 })
		obs := sys.NewThread()
		waitCond(t, "partial effect visible during wait", func() bool {
			var seen uint64
			obs.Atomic(func(tx *tm.Tx) { seen = tx.Read(&partial) })
			return seen == 1
		})
		select {
		case <-done:
			t.Fatal("waiter finished without a signal")
		default:
		}
		obs.Atomic(func(tx *tm.Tx) { tx.Write(&gate, 1) })
		cv.SignalNow()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never woke")
		}
	})
}

func TestSignalDeferredUntilCommit(t *testing.T) {
	// A transaction that signals and then aborts must not have signalled.
	forEach(t, func(t *testing.T, sys *tm.System) {
		cv := condvar.New()
		var x uint64
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&x) == 0 {
					cv.Wait(tx)
				}
			})
			close(done)
		}()
		waitCond(t, "queued waiter", func() bool { return cv.WaitingLen() == 1 })
		sig := sys.NewThread()
		tries := 0
		sig.Atomic(func(tx *tm.Tx) {
			tries++
			cv.Signal(tx)
			if tries == 1 {
				tx.Abort(tm.AbortExplicit)
			}
			tx.Write(&x, 1)
		})
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("committed signal lost")
		}
		if tries != 2 {
			t.Fatalf("tries = %d", tries)
		}
	})
}

func TestBroadcastWakesAll(t *testing.T) {
	forEach(t, func(t *testing.T, sys *tm.System) {
		cv := condvar.New()
		var gate uint64
		const n = 5
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				thr.Atomic(func(tx *tm.Tx) {
					if tx.Read(&gate) == 0 {
						cv.Wait(tx)
					}
				})
			}()
		}
		waitCond(t, "all queued", func() bool { return cv.WaitingLen() == n })
		sig := sys.NewThread()
		sig.Atomic(func(tx *tm.Tx) {
			tx.Write(&gate, 1)
			cv.Broadcast(tx)
		})
		ch := make(chan struct{})
		go func() { wg.Wait(); close(ch) }()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("broadcast left %d waiters queued", cv.WaitingLen())
		}
	})
}

func TestSignalNoWaitersIsNoop(t *testing.T) {
	cv := condvar.New()
	cv.SignalNow()
	cv.BroadcastNow()
	if cv.WaitingLen() != 0 {
		t.Fatal("queue corrupted")
	}
}

// TestSignalCommitAllocatesNothing: a writer commit that signals and
// broadcasts a condition variable nobody waits on allocates nothing on any
// engine — the deferred actions are bound once, and the driver hands the
// commit's action array back to the next attempt.
func TestSignalCommitAllocatesNothing(t *testing.T) {
	forEach(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		cv := condvar.New()
		x := new(uint64)
		body := func(tx *tm.Tx) {
			tx.Write(x, tx.Read(x)+1)
			cv.Signal(tx)
			cv.Broadcast(tx)
		}
		thr.Atomic(body) // size the descriptor's logs once
		if n := testing.AllocsPerRun(500, func() { thr.Atomic(body) }); n != 0 {
			t.Errorf("signalling writer commit allocates %v times", n)
		}
		if *x != 502 {
			t.Errorf("x = %d after 502 commits", *x)
		}
	})
}

func TestWaitWithPriorWritesPublishesThem(t *testing.T) {
	// Punctuation commit must publish writes made before the Wait even
	// when the engine buffers them (lazy, HTM), and must hand the
	// post-commit wake scan the orec slot of every word it stored to.
	forEach(t, func(t *testing.T, sys *tm.System) {
		cv := condvar.New()
		var a, b, gate uint64
		posted := make(chan []uint32, 1)
		sys.PostCommit = func(_ *tm.Thread, writeOrecs []uint32) {
			select {
			case posted <- slices.Clone(writeOrecs):
			default: // only the first writer commit is the punctuation commit
			}
		}
		done := make(chan struct{})
		go func() {
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				g := tx.Read(&gate)
				tx.Write(&a, 10)
				tx.Write(&b, 20)
				if g == 0 {
					cv.Wait(tx)
				}
			})
			close(done)
		}()
		waitCond(t, "queued", func() bool { return cv.WaitingLen() == 1 })
		select {
		case orecs := <-posted:
			for _, w := range []*uint64{&a, &b} {
				if idx := sys.Table.IndexOf(w); !slices.Contains(orecs, idx) {
					t.Errorf("punctuation commit stored to a word under orec slot %d, write orecs are %v", idx, orecs)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatal("punctuation commit never reached the PostCommit hook")
		}
		obs := sys.NewThread()
		var sa, sb uint64
		obs.Atomic(func(tx *tm.Tx) { sa, sb = tx.Read(&a), tx.Read(&b) })
		if sa != 10 || sb != 20 {
			t.Fatalf("punctuation commit lost writes: a=%d b=%d", sa, sb)
		}
		obs.Atomic(func(tx *tm.Tx) { tx.Write(&gate, 1) })
		cv.SignalNow()
		<-done
	})
}

func TestWaitCommitAbortWithdraws(t *testing.T) {
	// A Wait whose punctuation commit fails validation — a commit landed
	// on what the block read after it read it — leaves no waiter queued:
	// the block re-executes instead of sleeping, and a stale entry would
	// swallow a later Signal. Every engine's punctuation commit validates
	// here: eager's and lazy's in software, htm's and hybrid's in hardware.
	forEach(t, func(t *testing.T, sys *tm.System) {
		cv := condvar.New()
		var x uint64
		idx := sys.Table.IndexOf(&x)
		tries := 0
		sys.NewThread().Atomic(func(tx *tm.Tx) {
			tries++
			tx.Read(&x)
			if tries == 1 {
				sys.Clock.Bump()
				sys.Table.Set(idx, locktable.UnlockedAt(sys.Clock.Now()))
				cv.Wait(tx)
			}
		})
		if tries != 2 {
			t.Fatalf("the block ran %d times, want 2: the wait's commit should abort once", tries)
		}
		if n := cv.WaitingLen(); n != 0 {
			t.Fatalf("%d waiters left queued after the wait's commit aborted", n)
		}
	})
}
