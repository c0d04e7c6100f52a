// Compose: the dangerous scenario of the paper's §2.2.1 (Algorithm 3).
// An outer transaction produces one element into a bounded buffer and then
// atomically consumes two. A nested wait with Retry unrolls the WHOLE
// composition — observers never see the temporary `inprogress` flag — while
// a transaction-safe condition variable commits the outer transaction at
// the wait point, exposing the partial state. The example runs both and
// reports what a concurrent observer saw. Run with:
//
//	go run ./examples/compose [-engine eager]
package main

import (
	"flag"
	"fmt"
	"sync/atomic"
	"time"

	"tmsync"
)

type buffer struct {
	slots []uint64
	cap   uint64
	count uint64
	head  uint64
	tail  uint64
}

func newBuffer(n int) *buffer { return &buffer{slots: make([]uint64, n), cap: uint64(n)} }

func (b *buffer) put(tx *tmsync.Tx, v uint64) {
	t := tx.Read(&b.tail)
	tx.Write(&b.slots[t], v)
	tx.Write(&b.tail, (t+1)%b.cap)
	tx.Write(&b.count, tx.Read(&b.count)+1)
}

func (b *buffer) get(tx *tmsync.Tx) uint64 {
	h := tx.Read(&b.head)
	v := tx.Read(&b.slots[h])
	tx.Write(&b.head, (h+1)%b.cap)
	tx.Write(&b.count, tx.Read(&b.count)-1)
	return v
}

// runComposition runs Produce1Consume2 against an initially-empty buffer:
// the second consume must wait. wait is either Retry-style (atomic) or
// CondVar-style (atomicity-breaking). A concurrent observer polls the
// inprogress flag; a feeder supplies the missing element once the composer
// blocks. Returns how often the observer saw the partial state.
func runComposition(sys *tmsync.System, name string, wait func(tx *tmsync.Tx, b *buffer, cv *tmsync.CondVar)) int {
	b := newBuffer(8)
	var inprogress uint64
	cv := tmsync.NewCondVar()
	doneCh := make(chan [2]uint64, 1)

	go func() {
		thr := sys.NewThread()
		var first, second uint64
		thr.Atomic(func(tx *tmsync.Tx) {
			tx.Write(&inprogress, 1)
			b.put(tx, 77)
			// First consume always succeeds (we just produced).
			first = b.get(tx)
			// Second consume finds the buffer empty and must wait.
			if tx.Read(&b.count) == 0 {
				wait(tx, b, cv)
			}
			second = b.get(tx)
			tx.Write(&inprogress, 0)
		})
		doneCh <- [2]uint64{first, second}
	}()

	obs := sys.NewThread()
	var violations atomic.Int64
	fed := false
	start := time.Now()
	for {
		var ip uint64
		obs.Atomic(func(tx *tmsync.Tx) { ip = tx.Read(&inprogress) })
		if ip != 0 {
			violations.Add(1)
		}
		if !fed && sys.Stats.Sum().Deschedules+uint64(cv.WaitingLen()) > 0 {
			time.Sleep(5 * time.Millisecond) // let the waiter go to sleep
			obs.Atomic(func(tx *tmsync.Tx) {
				b.put(tx, 55)
				cv.Signal(tx)
			})
			fed = true
		}
		select {
		case pair := <-doneCh:
			fmt.Printf("%-9s consumed (%d,%d); observer saw partial state %d time(s)\n",
				name+":", pair[0], pair[1], violations.Load())
			return int(violations.Load())
		default:
		}
		if time.Since(start) > 10*time.Second {
			fmt.Printf("%-9s wedged (should not happen)\n", name+":")
			return -1
		}
	}
}

func main() {
	engine := flag.String("engine", "eager", "TM engine: eager | lazy | htm")
	flag.Parse()

	fmt.Println("Produce1Consume2 against an empty buffer (Algorithm 3):")
	fmt.Println()

	sysA := tmsync.New(tmsync.EngineKind(*engine), tmsync.Config{})
	vA := runComposition(sysA, "Retry", func(tx *tmsync.Tx, b *buffer, _ *tmsync.CondVar) {
		tmsync.Retry(tx)
	})

	sysB := tmsync.New(tmsync.EngineKind(*engine), tmsync.Config{})
	vB := runComposition(sysB, "CondVar", func(tx *tmsync.Tx, _ *buffer, cv *tmsync.CondVar) {
		cv.Wait(tx)
	})

	fmt.Println()
	switch {
	case vA == 0 && vB > 0:
		fmt.Println("Retry preserved atomicity; the condition variable broke it —")
		fmt.Println("exactly the contrast motivating the paper's mechanisms (§2.2.1).")
	case vA == 0:
		fmt.Println("Retry preserved atomicity; the condvar race was not observed this run (try again).")
	default:
		fmt.Println("UNEXPECTED: Retry exposed partial state — this is a bug.")
	}
}
