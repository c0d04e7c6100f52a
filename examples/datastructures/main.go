// Datastructures: transactional queue/map composition. A bank of workers
// drains a work queue, publishes results into a transactional map, and a
// collector waits for *specific* keys with WaitPred-backed Map.WaitFor —
// no polling, no condition variables, and the queue-take plus map-put of
// each worker is one atomic transaction (a Retry inside the composition
// unrolls all of it, §1.2). Run with:
//
//	go run ./examples/datastructures [-engine hybrid] [-jobs 200]
package main

import (
	"flag"
	"fmt"
	"sync"

	"tmsync"
)

func mix(v uint64) uint64 {
	x := v*2654435761 + 1
	for i := 0; i < 64; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x%1_000_000_000 + 1
}

func main() {
	engine := flag.String("engine", "hybrid", "TM engine: eager | lazy | htm | hybrid")
	jobs := flag.Int("jobs", 200, "jobs to process")
	workers := flag.Int("workers", 4, "worker goroutines")
	flag.Parse()

	sys := tmsync.New(tmsync.EngineKind(*engine), tmsync.Config{})
	queue := tmsync.NewQueue(tmsync.NewArena(64, tmsync.QueueNodeWords))
	results := tmsync.NewMap(tmsync.NewArena(*jobs+1, tmsync.MapNodeWords), 64)

	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			for {
				var job uint64
				thr.Atomic(func(tx *tmsync.Tx) {
					// One atomic step: take a job and publish its result.
					// TakeTx retries (sleeps) while the queue is empty.
					job = queue.TakeTx(tx)
					if job == 0 { // shutdown pill
						return
					}
					results.PutTx(tx, job, mix(job))
				})
				if job == 0 {
					return
				}
			}
		}()
	}

	// Collector: wait for each job's result by key, in order, while the
	// producers are still feeding the queue — WaitFor wakes only when its
	// own key appears, not on unrelated insertions.
	collected := make(chan uint64, 1)
	go func() {
		thr := sys.NewThread()
		var sum uint64
		for j := 1; j <= *jobs; j++ {
			sum += results.WaitFor(thr, uint64(j))
		}
		collected <- sum
	}()

	// Producer: feed jobs, then one shutdown pill per worker.
	main := sys.NewThread()
	for j := 1; j <= *jobs; j++ {
		queue.Put(main, uint64(j))
	}
	sum := <-collected
	for w := 0; w < *workers; w++ {
		queue.Put(main, 0)
	}
	wg.Wait()

	var want uint64
	for j := 1; j <= *jobs; j++ {
		want += mix(uint64(j))
	}
	status := "OK"
	if sum != want {
		status = "MISMATCH"
	}
	fmt.Printf("engine=%s processed %d jobs via queue→map composition; sum %d (want %d) — %s\n",
		*engine, *jobs, sum, want, status)
	st := sys.Stats.Sum()
	fmt.Printf("deschedules=%d wakeups=%d aborts=%d\n",
		st.Deschedules, st.Wakeups, st.Aborts)
}
