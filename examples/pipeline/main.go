// Pipeline: a dedup-style three-stage pipeline (chunk → compress → write)
// whose stages coordinate through transactional queues, each demonstrating
// a different mechanism: the first queue waits with WaitPred (wake only
// when the predicate holds), the second with Await (wake on changes to one
// named address), and the producer throttles with Retry. Run with:
//
//	go run ./examples/pipeline [-engine lazy] [-items 5000]
package main

import (
	"flag"
	"fmt"
	"sync"

	"tmsync"
)

// ring is a minimal transactional ring buffer.
type ring struct {
	slots []uint64
	cap   uint64
	count uint64
	head  uint64
	tail  uint64
}

func newRing(n int) *ring { return &ring{slots: make([]uint64, n), cap: uint64(n)} }

func (r *ring) push(tx *tmsync.Tx, v uint64) {
	t := tx.Read(&r.tail)
	tx.Write(&r.slots[t], v)
	tx.Write(&r.tail, (t+1)%r.cap)
	tx.Write(&r.count, tx.Read(&r.count)+1)
}

func (r *ring) pop(tx *tmsync.Tx) uint64 {
	h := tx.Read(&r.head)
	v := tx.Read(&r.slots[h])
	tx.Write(&r.head, (h+1)%r.cap)
	tx.Write(&r.count, tx.Read(&r.count)-1)
	return v
}

const done = ^uint64(0)

func mix(v uint64, rounds int) uint64 {
	x := v*2654435761 + 1
	for i := 0; i < rounds*16; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x % (done >> 1)
}

func main() {
	engine := flag.String("engine", "lazy", "TM engine: eager | lazy | htm")
	items := flag.Int("items", 5000, "items to push through the pipeline")
	workers := flag.Int("workers", 3, "stage-2 workers")
	flag.Parse()

	sys := tmsync.New(tmsync.EngineKind(*engine), tmsync.Config{})
	q1 := newRing(16)
	q2 := newRing(16)
	var written uint64 // items completed by stage 3

	// WaitPred predicate: queue 1 has data.
	q1NotEmpty := func(tx *tmsync.Tx, _ []uint64) bool { return tx.Read(&q1.count) > 0 }

	var wg sync.WaitGroup
	var sum uint64
	var mu sync.Mutex

	// Stage 2: compressors — wait with WaitPred, publish into q2.
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			for {
				var v uint64
				thr.Atomic(func(tx *tmsync.Tx) {
					if tx.Read(&q1.count) == 0 {
						tmsync.WaitPred(tx, q1NotEmpty)
					}
					v = q1.pop(tx)
					if v == done {
						return
					}
					if tx.Read(&q2.count) == q2.cap {
						tmsync.Retry(tx)
					}
					q2.push(tx, mix(v, 4)+1)
				})
				if v == done {
					return
				}
			}
		}()
	}

	// Stage 3: writer — wait with Await on q2's count word.
	wg.Add(1)
	go func() {
		defer wg.Done()
		thr := sys.NewThread()
		var local uint64
		for n := 0; n < *items; n++ {
			var v uint64
			thr.Atomic(func(tx *tmsync.Tx) {
				if tx.Read(&q2.count) == 0 {
					tmsync.Await(tx, &q2.count)
				}
				v = q2.pop(tx)
				tx.Write(&written, tx.Read(&written)+1)
			})
			local += mix(v, 1)
		}
		mu.Lock()
		sum += local
		mu.Unlock()
	}()

	// Stage 1: chunker — throttle against the writer with Retry.
	const window = 64
	thr := sys.NewThread()
	for n := 0; n < *items; n++ {
		v := uint64(n) + 1
		thr.Atomic(func(tx *tmsync.Tx) {
			if n >= window && tx.Read(&written) < uint64(n-window+1) {
				tmsync.Retry(tx)
			}
			if tx.Read(&q1.count) == q1.cap {
				tmsync.Retry(tx)
			}
			q1.push(tx, v)
		})
	}
	for w := 0; w < *workers; w++ {
		thr.Atomic(func(tx *tmsync.Tx) {
			if tx.Read(&q1.count) == q1.cap {
				tmsync.Retry(tx)
			}
			q1.push(tx, done)
		})
	}
	wg.Wait()

	var want uint64
	for n := 1; n <= *items; n++ {
		want += mix(mix(uint64(n), 4)+1, 1)
	}
	status := "OK"
	if sum != want {
		status = "MISMATCH"
	}
	fmt.Printf("engine=%s pipelined %d items; checksum %x (want %x) — %s\n",
		*engine, *items, sum, want, status)
	st := sys.Stats.Sum()
	fmt.Printf("deschedules=%d wakeups=%d aborts=%d\n",
		st.Deschedules, st.Wakeups, st.Aborts)
}
