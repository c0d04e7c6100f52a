package main

import (
	"tmsync"
	"tmsync/internal/buffer"
	"tmsync/internal/mech"
)

// One put and one get by a single goroutine on a capacity-4 buffer: the
// buffer's transactions with no waiting and no conflict.
func probeBuffer(pc *probeCtx) {
	for _, e := range tmsync.EngineKinds {
		sys := tmsync.New(e, tmsync.Config{})
		thr := sys.NewThread()
		b := buffer.NewTM(bufferCap)
		pc.out["buffer.putget_ns."+string(e)] = pc.perOp(64, func() {
			b.PutMech(thr, mech.Retry, 1)
			sinkU64 += b.GetMech(thr, mech.Retry)
		})
		thr.Detach()
	}
	lb := buffer.NewLock(bufferCap)
	pc.out["buffer.lock_putget_ns"] = pc.perOp(64, func() {
		lb.Put(1)
		sinkU64 += lb.Get()
	})
}
