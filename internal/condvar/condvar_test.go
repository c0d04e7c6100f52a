package condvar_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"tmsync/internal/mono"

	"tmsync/internal/condvar"
	"tmsync/internal/htm"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

func systems() map[string]*tm.System {
	return map[string]*tm.System{
		"eager": tm.NewSystem(tm.Config{}, eager.New),
		"lazy":  tm.NewSystem(tm.Config{}, lazy.New),
		"htm":   tm.NewSystem(tm.Config{}, htm.New),
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
	start := mono.Now()
	for !cond() {
		if start.Elapsed() > 5*time.Second {
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
		waitCond(t, "queued waiter", func() bool { return cv.WaitingLen() == 1 })
		obs := sys.NewThread()
		var seen uint64
		obs.Atomic(func(tx *tm.Tx) { seen = tx.Read(&partial) })
		if seen != 1 {
			t.Fatalf("partial effect not visible during wait: saw %d, want 1", seen)
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

func TestWaitWithPriorWritesPublishesThem(t *testing.T) {
	// Punctuation commit must publish writes made before the Wait even
	// when the engine buffers them (lazy, HTM), and must hand the
	// post-commit wake scan the orec slot of every word it stored to —
	// Wait calls the hook itself, with its own copy of the write orecs.
	forEach(t, func(t *testing.T, sys *tm.System) {
		cv := condvar.New()
		var a, b, gate uint64
		posted := make(chan []uint32, 1)
		sys.PostCommit = func(_ *tm.Thread, writeOrecs, _ []uint32) {
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
