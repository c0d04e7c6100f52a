package tmsync_test

import (
	"sync"
	"testing"
	"time"

	"tmsync"
)

func TestNewAllEngines(t *testing.T) {
	for _, k := range tmsync.EngineKinds {
		sys := tmsync.New(k, tmsync.Config{})
		if sys.Engine.Name() != string(k) {
			t.Errorf("engine name %q for kind %q", sys.Engine.Name(), k)
		}
		thr := sys.NewThread()
		var x uint64
		thr.Atomic(func(tx *tmsync.Tx) { tx.Write(&x, 1) })
		if x != 1 {
			t.Errorf("%s: write lost", k)
		}
	}
}

func TestNewUnknownEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown engine")
		}
	}()
	tmsync.New("quantum", tmsync.Config{})
}

func TestFacadeRetryRoundTrip(t *testing.T) {
	for _, k := range tmsync.EngineKinds {
		t.Run(string(k), func(t *testing.T) {
			sys := tmsync.New(k, tmsync.Config{})
			var flag uint64
			done := make(chan struct{})
			go func() {
				thr := sys.NewThread()
				thr.Atomic(func(tx *tmsync.Tx) {
					if tx.Read(&flag) == 0 {
						tmsync.Retry(tx)
					}
				})
				close(done)
			}()
			for sys.CS.WaitingLen() == 0 {
				time.Sleep(time.Millisecond)
			}
			w := sys.NewThread()
			w.Atomic(func(tx *tmsync.Tx) { tx.Write(&flag, 1) })
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Retry waiter never woke through the facade")
			}
		})
	}
}

func TestFacadeAwaitAndWaitPred(t *testing.T) {
	sys := tmsync.New(tmsync.Lazy, tmsync.Config{})
	var a, b uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		thr := sys.NewThread()
		thr.Atomic(func(tx *tmsync.Tx) {
			if tx.Read(&a) == 0 {
				tmsync.Await(tx, &a)
			}
		})
	}()
	go func() {
		defer wg.Done()
		thr := sys.NewThread()
		thr.Atomic(func(tx *tmsync.Tx) {
			if tx.Read(&b) < 3 {
				tmsync.WaitPred(tx, func(tx *tmsync.Tx, _ []uint64) bool {
					return tx.Read(&b) >= 3
				})
			}
		})
	}()
	for sys.CS.WaitingLen() < 2 {
		time.Sleep(time.Millisecond)
	}
	w := sys.NewThread()
	w.Atomic(func(tx *tmsync.Tx) { tx.Write(&a, 1) })
	w.Atomic(func(tx *tmsync.Tx) { tx.Write(&b, 3) })
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("facade waiters never woke")
	}
}

func TestFacadeCondVar(t *testing.T) {
	sys := tmsync.New(tmsync.Eager, tmsync.Config{})
	cv := tmsync.NewCondVar()
	var ready uint64
	done := make(chan struct{})
	go func() {
		thr := sys.NewThread()
		thr.Atomic(func(tx *tmsync.Tx) {
			if tx.Read(&ready) == 0 {
				cv.Wait(tx)
			}
		})
		close(done)
	}()
	for cv.WaitingLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	s := sys.NewThread()
	s.Atomic(func(tx *tmsync.Tx) {
		tx.Write(&ready, 1)
		cv.Signal(tx)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("condvar waiter never woke through the facade")
	}
}

func TestFacadeRetryOrigSTMOnly(t *testing.T) {
	sys := tmsync.New(tmsync.HTM, tmsync.Config{})
	thr := sys.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("RetryOrig under HTM should panic")
		}
	}()
	var x uint64
	thr.Atomic(func(tx *tmsync.Tx) {
		_ = tx.Read(&x)
		tmsync.RetryOrig(tx)
	})
}
