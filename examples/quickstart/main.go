// Quickstart: a multi-producer multi-consumer bounded buffer coordinated
// with Retry — the dynamic-read-set condition synchronization of the
// paper's Figure 2.2 (right column). Run with:
//
//	go run ./examples/quickstart [-engine eager|lazy|htm]
package main

import (
	"flag"
	"fmt"
	"sync"

	"tmsync"
)

// boundedBuffer is the example's shared state: plain Go words accessed
// only through transactions.
type boundedBuffer struct {
	slots    []uint64
	capacity uint64
	count    uint64
	nextProd uint64
	nextCons uint64
}

func (b *boundedBuffer) put(tx *tmsync.Tx, v uint64) {
	// If the buffer is full, undo everything and sleep until something we
	// read changes — no condition variable, no retry loop, no signals.
	if tx.Read(&b.count) == b.capacity {
		tmsync.Retry(tx)
	}
	np := tx.Read(&b.nextProd)
	tx.Write(&b.slots[np], v)
	tx.Write(&b.nextProd, (np+1)%b.capacity)
	tx.Write(&b.count, tx.Read(&b.count)+1)
}

func (b *boundedBuffer) get(tx *tmsync.Tx) uint64 {
	if tx.Read(&b.count) == 0 {
		tmsync.Retry(tx)
	}
	nc := tx.Read(&b.nextCons)
	v := tx.Read(&b.slots[nc])
	tx.Write(&b.nextCons, (nc+1)%b.capacity)
	tx.Write(&b.count, tx.Read(&b.count)-1)
	return v
}

func main() {
	engine := flag.String("engine", "eager", "TM engine: eager | lazy | htm")
	flag.Parse()

	sys := tmsync.New(tmsync.EngineKind(*engine), tmsync.Config{})
	buf := &boundedBuffer{slots: make([]uint64, 8), capacity: 8}

	const producers, consumers = 3, 3
	const perProducer = 10000
	total := producers * perProducer

	var sum, want uint64
	var mu sync.Mutex
	var wg sync.WaitGroup

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			thr := sys.NewThread()
			for i := 0; i < perProducer; i++ {
				v := uint64(id*perProducer+i) + 1
				thr.Atomic(func(tx *tmsync.Tx) { buf.put(tx, v) })
			}
		}(p)
	}
	for i := 1; i <= total; i++ {
		want += uint64(i)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			var local uint64
			for i := 0; i < total/consumers; i++ {
				var v uint64
				thr.Atomic(func(tx *tmsync.Tx) { v = buf.get(tx) })
				local += v
			}
			mu.Lock()
			sum += local
			mu.Unlock()
		}()
	}
	wg.Wait()

	fmt.Printf("engine=%s moved %d elements; checksum %d (want %d) — %s\n",
		*engine, total, sum, want, okStr(sum == want))
	st := sys.Stats.Sum()
	fmt.Printf("commits=%d aborts=%d deschedules=%d wakeups=%d\n",
		st.Commits, st.Aborts, st.Deschedules, st.Wakeups)
}

func okStr(ok bool) string {
	if ok {
		return "OK"
	}
	return "MISMATCH"
}
