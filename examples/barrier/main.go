// Barrier: a reusable sense-reversing barrier built from WaitPred,
// demonstrating §2.3's point that the classic two-wait barrier needs
// restructuring (not simple substitution) to move from condition variables
// to transactional condition synchronization. N workers run a phased
// computation; the barrier guarantees no worker enters phase k+1 before
// all have finished phase k. Run with:
//
//	go run ./examples/barrier [-engine htm] [-workers 4] [-rounds 100]
package main

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"

	"tmsync"
)

// barrier is a transactional sense-reversing barrier.
type barrier struct {
	n     uint64
	count uint64
	sense uint64
}

// arrive blocks until all n participants have arrived. sense is the
// caller's private sense word (initially 0).
func (b *barrier) arrive(sys *tmsync.System, thr *tmsync.Thread, sense *uint64) {
	old := *sense
	*sense = 1 - old
	last := false
	thr.Atomic(func(tx *tmsync.Tx) {
		c := tx.Read(&b.count) + 1
		if c == b.n {
			tx.Write(&b.count, 0)
			tx.Write(&b.sense, 1-old)
			last = true
		} else {
			tx.Write(&b.count, c)
		}
	})
	if last {
		return
	}
	flipped := func(tx *tmsync.Tx, args []uint64) bool { return tx.Read(&b.sense) != args[0] }
	thr.Atomic(func(tx *tmsync.Tx) {
		if tx.Read(&b.sense) == old {
			tmsync.WaitPred(tx, flipped, old)
		}
	})
}

func main() {
	engine := flag.String("engine", "htm", "TM engine: eager | lazy | htm")
	workers := flag.Int("workers", 4, "participants")
	rounds := flag.Int("rounds", 200, "barrier crossings")
	flag.Parse()

	sys := tmsync.New(tmsync.EngineKind(*engine), tmsync.Config{})
	bar := &barrier{n: uint64(*workers)}

	// phase[w] is worker w's current round; the barrier invariant is that
	// no two workers' phases ever differ by more than one.
	phases := make([]atomic.Int64, *workers)
	var violations atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			thr := sys.NewThread()
			var sense uint64
			for r := 0; r < *rounds; r++ {
				phases[id].Store(int64(r))
				for other := range phases {
					d := phases[other].Load() - int64(r)
					if d < -1 || d > 1 {
						violations.Add(1)
					}
				}
				bar.arrive(sys, thr, &sense)
			}
		}(w)
	}
	wg.Wait()

	status := "OK"
	if violations.Load() != 0 {
		status = "BROKEN"
	}
	fmt.Printf("engine=%s workers=%d rounds=%d phase-skew violations=%d — %s\n",
		*engine, *workers, *rounds, violations.Load(), status)
	st := sys.Stats.Sum()
	fmt.Printf("deschedules=%d wakeups=%d serializations=%d\n",
		st.Deschedules, st.Wakeups, st.Serializations)
}
