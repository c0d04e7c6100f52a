package eager_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tmsync/internal/stm/eager"
	"tmsync/internal/tm"
)

// The single-threaded extension scenarios (extension avoids the abort on an
// unchanged snapshot, and never masks a real conflict) run for every engine
// in internal/tm's TestProtocolExtension.

// TestTimestampExtensionConcurrent stress-checks serializability with
// extension enabled: the x==y invariant must hold inside every reader.
func TestTimestampExtensionConcurrent(t *testing.T) {
	sys := tm.NewSystem(tm.Config{Quiesce: true, TimestampExtension: true}, eager.New)
	var x, y uint64
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			for i := 0; i < 3000; i++ {
				thr.Atomic(func(tx *tm.Tx) {
					v := tx.Read(&x) + 1
					tx.Write(&x, v)
					tx.Write(&y, v)
				})
			}
		}()
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			for i := 0; i < 3000; i++ {
				thr.Atomic(func(tx *tm.Tx) {
					a := tx.Read(&x)
					b := tx.Read(&y)
					if a != b {
						bad.Add(1)
					}
				})
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("readers saw %d torn states with extension enabled", n)
	}
	if x != y || x != 9000 {
		t.Fatalf("final x=%d y=%d", x, y)
	}
}
