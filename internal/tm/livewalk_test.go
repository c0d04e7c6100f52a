package tm_test

import (
	"sync"
	"testing"
	"time"

	"tmsync/internal/hybrid"
	"tmsync/internal/sem"
	"tmsync/internal/tm"
)

// poison makes an idle thread look like a hardware attempt in flight since
// time 0 that has read every orec: a walk that visits it dooms it
// (doomHWReaders, EnterSerial's first pass) or waits on it until it is
// cured (Quiesce, EnterSerial's drain). With inFlight false it only looks
// like a hardware reader, which a visit dooms without a wait.
func poison(t *tm.Thread, inFlight bool) {
	if inFlight {
		t.ActiveStart.Store(1)
	}
	t.HWActive.Store(true)
	for i := range t.Sig {
		t.Sig[i].Store(^uint64(0))
	}
}

// cure undoes poison and clears Doomed.
func cure(t *tm.Thread) {
	t.ActiveStart.Store(0)
	t.HWActive.Store(false)
	for i := range t.Sig {
		t.Sig[i].Store(0)
	}
	t.Doomed.Store(false)
}

// TestLiveSetWalks: the walks that poll other threads — Quiesce,
// doomHWReaders and both passes of EnterSerial — visit only the live set.
// 256 threads run once and go through SemWait (on a pre-signalled Sem, so
// they leave the live set and stay out of it, as a sleeper does), and are
// then poisoned to look like attempts in flight: a walk that visited one
// would doom it or wait on it. A writer's software and irrevocable commits
// must do neither, while the doom walk still reaches a second thread that
// has run; Detach drops that thread from the walks, and its next Atomic
// brings it back.
func TestLiveSetWalks(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, hybrid.New)
	ws := distinctWords(t, sys, 2)
	x, y := ws[0], ws[1]

	parked := make([]*tm.Thread, 256)
	for i := range parked {
		thr := sys.NewThread()
		thr.Atomic(func(tx *tm.Tx) { tx.Read(y) })
		s := sem.New()
		s.Signal()
		sys.SemWait(thr, s)
		poison(thr, true)
		parked[i] = thr
	}
	a, b := sys.NewThread(), sys.NewThread()
	b.Atomic(func(tx *tm.Tx) { tx.Read(y) })

	// commit runs one software or irrevocable commit to x on a and reports
	// whether it returned within a generous bound; if not, it cures
	// skipped (the threads the walks must not visit) so that it can finish.
	commit := func(irrevocable bool, skipped []*tm.Thread) bool {
		done := make(chan struct{})
		go func() {
			defer close(done)
			a.Atomic(func(tx *tm.Tx) {
				if irrevocable {
					tx.Irrevocable()
				} else if tx.Mode == tm.ModeHW {
					tx.RestartSoftware()
				}
				tx.Write(x, tx.Read(x)+1)
			})
		}()
		select {
		case <-done:
			return true
		case <-time.After(2 * time.Second):
			for _, thr := range skipped {
				cure(thr)
			}
			<-done
			return false
		}
	}
	// skips checks that a's commits neither wait on nor doom any of the
	// poisoned threads skipped.
	skips := func(when string, skipped []*tm.Thread) {
		t.Helper()
		for _, irrevocable := range []bool{false, true} {
			if !commit(irrevocable, skipped) {
				t.Fatalf("%s: a commit (irrevocable=%v) waited on a thread outside the live set", when, irrevocable)
			}
			for _, thr := range skipped {
				if thr.Doomed.Load() {
					t.Fatalf("%s: a commit (irrevocable=%v) doomed thread %d, outside the live set", when, irrevocable, thr.ID)
				}
			}
		}
	}
	// visits checks that a's software commit dooms b, made a hardware
	// reader of everything: the doom walk visits b.
	visits := func(when string) {
		t.Helper()
		poison(b, false)
		defer cure(b)
		if !commit(false, nil) {
			t.Fatalf("%s: the commit did not return", when)
		}
		if !b.Doomed.Load() {
			t.Errorf("%s: the doom walk skipped thread %d, in the live set", when, b.ID)
		}
	}

	skips("2 running, 256 parked", parked)
	visits("2 running, 256 parked")
	b.Detach()
	poison(b, true)
	skips("after b's Detach", append(parked, b))
	cure(b)
	b.Atomic(func(tx *tm.Tx) { tx.Read(y) })
	visits("after b's next Atomic")
}

// TestThreadListIDsMatchIndex: the live set indexes the thread list by
// ID, so concurrent registrations must still leave the thread with ID i at
// index i-1.
func TestThreadListIDsMatchIndex(t *testing.T) {
	const goroutines, perGoroutine = 8, 500
	sys := tm.NewSystem(tm.Config{}, hybrid.New)
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perGoroutine {
				sys.NewThread()
			}
		}()
	}
	wg.Wait()
	ts := sys.Threads()
	if len(ts) != goroutines*perGoroutine {
		t.Fatalf("%d threads registered, want %d", len(ts), goroutines*perGoroutine)
	}
	for i, thr := range ts {
		if thr.ID != uint64(i+1) {
			t.Fatalf("Threads()[%d].ID = %d, want %d", i, thr.ID, i+1)
		}
	}
}
