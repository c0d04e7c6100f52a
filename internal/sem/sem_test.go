package sem

import (
	"sync"
	"testing"
	"time"
)

func TestSignalThenWait(t *testing.T) {
	s := New()
	s.Signal()
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait blocked despite pending signal")
	}
}

func TestSignalsCollapseToOneToken(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Signal()
	}
	s.Wait() // consumes the single token
	if s.TryDrain() {
		t.Fatal("more than one token buffered")
	}
}

func TestWaitBlocksUntilSignal(t *testing.T) {
	s := New()
	released := make(chan struct{})
	go func() { s.Wait(); close(released) }()
	select {
	case <-released:
		t.Fatal("Wait returned without a signal")
	case <-time.After(20 * time.Millisecond):
	}
	s.Signal()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake after Signal")
	}
}

func TestTryDrain(t *testing.T) {
	s := New()
	if s.TryDrain() {
		t.Fatal("TryDrain succeeded on empty semaphore")
	}
	s.Signal()
	if !s.TryDrain() {
		t.Fatal("TryDrain failed with pending token")
	}
	if s.TryDrain() {
		t.Fatal("TryDrain consumed a second phantom token")
	}
}

// TestBatchReuseAcrossFlushCycles pins the contract of a reused Batch:
// SignalAll empties the batch but retains capacity for the next cycle, and
// a reused batch must deliver exactly the semaphores added since the last
// SignalAll — never re-delivering a prior cycle's, whose waiters have long
// departed.
func TestBatchReuseAcrossFlushCycles(t *testing.T) {
	var b Batch
	first := []*Sem{New(), New(), New()}
	for _, s := range first {
		b.Add(s)
	}
	if n := b.SignalAll(); n != 3 {
		t.Fatalf("first cycle delivered %d signals, want 3", n)
	}
	for i, s := range first {
		if !s.TryDrain() {
			t.Fatalf("first-cycle sem %d missing its token", i)
		}
	}
	if cap(b.sems) < 3 {
		t.Errorf("SignalAll dropped the batch's capacity (cap %d, want >= 3)", cap(b.sems))
	}

	// Second cycle on the same batch: only the new semaphore may fire.
	second := New()
	b.Add(second)
	if n := b.SignalAll(); n != 1 {
		t.Fatalf("second cycle delivered %d signals, want 1", n)
	}
	if !second.TryDrain() {
		t.Fatal("second-cycle sem missing its token")
	}
	for i, s := range first {
		if s.TryDrain() {
			t.Fatalf("reused batch re-delivered first-cycle sem %d (stale token for a departed waiter)", i)
		}
	}

	// An empty flush stays empty.
	if n := b.SignalAll(); n != 0 {
		t.Fatalf("empty batch delivered %d signals", n)
	}
}

// TestBatchLenAcrossInterleavedAddSignalAll pins Len's bookkeeping while
// Add and SignalAll interleave on one reused batch.
func TestBatchLenAcrossInterleavedAddSignalAll(t *testing.T) {
	var b Batch
	if b.Len() != 0 {
		t.Fatalf("zero-value batch has Len %d", b.Len())
	}
	sems := []*Sem{New(), New(), New(), New(), New()}
	for i, s := range sems[:3] {
		b.Add(s)
		if b.Len() != i+1 {
			t.Fatalf("Len = %d after %d Adds", b.Len(), i+1)
		}
	}
	if n := b.SignalAll(); n != 3 || b.Len() != 0 {
		t.Fatalf("after SignalAll: delivered %d, Len %d; want 3, 0", n, b.Len())
	}
	b.Add(sems[3])
	b.Add(sems[4])
	if b.Len() != 2 {
		t.Fatalf("Len = %d after two post-flush Adds, want 2", b.Len())
	}
	if n := b.SignalAll(); n != 2 || b.Len() != 0 {
		t.Fatalf("second flush: delivered %d, Len %d; want 2, 0", n, b.Len())
	}
	for i, s := range sems {
		if !s.TryDrain() {
			t.Fatalf("sem %d never received its token", i)
		}
		if s.TryDrain() {
			t.Fatalf("sem %d received more than one token", i)
		}
	}
}

func TestManySignalersOneWaiter(t *testing.T) {
	s := New()
	const rounds = 1000
	var wg sync.WaitGroup
	woken := 0
	done := make(chan struct{})
	go func() {
		for i := 0; i < rounds; i++ {
			s.Wait()
			woken++
			done <- struct{}{}
		}
	}()
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Signal() }()
		<-done
	}
	wg.Wait()
	if woken != rounds {
		t.Fatalf("woken %d times, want %d", woken, rounds)
	}
}
