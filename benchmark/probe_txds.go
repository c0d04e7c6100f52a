package main

import (
	"tmsync"
	"tmsync/internal/txds"
)

// The transactional data structures on lazy, one goroutine: a queue
// put+take, and a get and an overwriting put on a 1024-key map.
func probeTxds(pc *probeCtx) {
	const keys = 1024
	sys := tmsync.New(tmsync.Lazy, tmsync.Config{})
	thr := sys.NewThread()
	defer thr.Detach()

	q := txds.NewQueue(txds.NewArena(64, txds.QueueNodeWords))
	pc.out["txds.queue_puttake_ns"] = pc.perOp(64, func() {
		q.Put(thr, 1)
		sinkU64 += q.Take(thr)
	})

	m := txds.NewMap(txds.NewArena(keys, txds.MapNodeWords), keys)
	for k := uint64(0); k < keys; k++ {
		m.Put(thr, k, k)
	}
	var i uint64
	pc.out["txds.map_get_ns"] = pc.perOp(64, func() {
		v, _ := m.Get(thr, i%keys)
		sinkU64 += v
		i++
	})
	pc.out["txds.map_put_ns"] = pc.perOp(64, func() {
		m.Put(thr, i%keys, i)
		i++
	})
}
