package hybrid_test

import (
	"sync"
	"testing"

	"tmsync/internal/hybrid"
	"tmsync/internal/tm"
)

// TestFallbackIsConcurrent is the defining hybrid property: software-mode
// transactions (past the hardware retry budget) commit without ever
// taking the serial lock, and do so concurrently with hardware-mode
// transactions on disjoint data.
func TestFallbackIsConcurrent(t *testing.T) {
	sys := tm.NewSystem(tm.Config{HTMMaxRetries: 0}, hybrid.New)
	// HTMMaxRetries 0: everything falls back to software on attempt 2;
	// force that by aborting every hardware attempt.
	var counters [4]uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			thr := sys.NewThread()
			for i := 0; i < 500; i++ {
				thr.Atomic(func(tx *tm.Tx) {
					if tx.Mode == tm.ModeHW {
						tx.Abort(tm.AbortExplicit)
					}
					tx.Write(&counters[id], tx.Read(&counters[id])+1)
				})
			}
		}(w)
	}
	wg.Wait()
	for id := range counters {
		if counters[id] != 500 {
			t.Fatalf("counter[%d] = %d", id, counters[id])
		}
	}
	if sys.Stats.Sum().Serializations != 0 {
		t.Fatalf("software fallback serialized %d times; it must be concurrent", sys.Stats.Sum().Serializations)
	}
}

// TestModesInteroperate runs hardware and forced-software transactions
// against the same counter; the shared orec protocol must serialize them
// correctly.
func TestModesInteroperate(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, hybrid.New)
	var counter uint64
	var wg sync.WaitGroup
	const per = 1000
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() { // hardware-path incrementer
			defer wg.Done()
			thr := sys.NewThread()
			for i := 0; i < per; i++ {
				thr.Atomic(func(tx *tm.Tx) {
					tx.Write(&counter, tx.Read(&counter)+1)
				})
			}
		}()
		go func() { // software-path incrementer
			defer wg.Done()
			thr := sys.NewThread()
			for i := 0; i < per; i++ {
				thr.Atomic(func(tx *tm.Tx) {
					if tx.Mode == tm.ModeHW {
						tx.RestartSoftware()
					}
					tx.Write(&counter, tx.Read(&counter)+1)
				})
			}
		}()
	}
	wg.Wait()
	if counter != 4*per {
		t.Fatalf("counter = %d, want %d (mode interop broke atomicity)", counter, 4*per)
	}
}

// TestSoftwareWritesInvisibleUntilCommit: the software fallback buffers
// writes exactly like the lazy STM.
func TestSoftwareWritesInvisibleUntilCommit(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, hybrid.New)
	t1 := sys.NewThread()
	t2 := sys.NewThread()
	var x uint64 = 1
	t1.Atomic(func(tx *tm.Tx) {
		if tx.Mode == tm.ModeHW {
			tx.RestartSoftware()
		}
		tx.Write(&x, 50)
		var seen uint64
		t2.Atomic(func(tx2 *tm.Tx) { seen = tx2.Read(&x) })
		if seen != 1 {
			t.Errorf("buffered software write leaked: %d", seen)
		}
	})
	if x != 50 {
		t.Fatalf("x = %d", x)
	}
}
