package main

import (
	"tmsync"
	"tmsync/internal/mech"
	"tmsync/internal/mono"
	"tmsync/internal/parsecsim"
)

// parsecsim.<skeleton>_ms: one run of each skeleton at the workload's scale
// under lazy/WaitPred, median of the runs that fit one cell (at least
// three); parsecsim.pthreads_cycle_ms: all eight on the Pthreads kit.
func probeParsecsim(pc *probeCtx) {
	w := newParsecWorkload(pc.cfg)
	medianMS := func(fn func()) float64 {
		var ms []float64
		for start := mono.Now(); len(ms) < 3 || start.Elapsed() < pc.cfg.probeCell(); {
			ms = append(ms, float64(mono.Timed(fn).Nanoseconds())/1e6)
		}
		return median(ms)
	}
	for i := range parsecsim.Benchmarks {
		b := &parsecsim.Benchmarks[i]
		pc.out["parsecsim."+b.Name+"_ms"] = medianMS(func() {
			sys := tmsync.New(tmsync.Lazy, tmsync.Config{})
			k := &parsecsim.Kit{Mech: mech.WaitPred, Sys: sys.System}
			if b.Run(k, parsecThreads(b, pc.cfg.nproc), pc.cfg.scale) != w.refs[i] {
				pc.failed++
			}
		})
	}
	pc.out["parsecsim.pthreads_cycle_ms"] = medianMS(w.pthreadsCycle)
}
