package main

import (
	"sync/atomic"

	"tmsync/internal/sem"
)

func probeSem(pc *probeCtx) {
	// sem.roundtrip_ns: signal a parked goroutine and wait for its answer.
	ping, pong := sem.New(), sem.New()
	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ping.Wait()
			if quit.Load() {
				return
			}
			pong.Signal()
		}
	}()
	pc.out["sem.roundtrip_ns"] = pc.perOp(64, func() {
		ping.Signal()
		pong.Wait()
	})
	quit.Store(true)
	ping.Signal()
	<-done

	// sem.batch8_signal_ns: build a batch of eight, signal it, drain the
	// tokens again (nobody is waiting: the cost of delivery alone).
	var sems [8]*sem.Sem
	for i := range sems {
		sems[i] = sem.New()
	}
	var batch sem.Batch
	pc.out["sem.batch8_signal_ns"] = pc.perOp(64, func() {
		for _, s := range sems {
			batch.Add(s)
		}
		sinkU64 += uint64(batch.SignalAll())
		for _, s := range sems {
			s.TryDrain()
		}
	})
}
