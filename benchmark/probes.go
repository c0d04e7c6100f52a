package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/mono"
)

// probeCtx collects the workload-independent layer probes: tight timed
// loops over each layer's public functions, one goroutine unless a probe
// says otherwise. Each layer's probes live in a probe_<layer>.go of their
// own, so an API change in one layer costs a one-file benchmark change.
type probeCtx struct {
	cfg    runConfig
	out    map[string]float64
	failed uint64 // ops a probe's own checks rejected, or that wedged
}

var layerProbes = []func(*probeCtx){
	probeTimer, probeLocktable, probeClock, probeSem, probeTM, probeEngines,
	probeCore, probeCondvar, probeBuffer, probeTxds, probeParsecsim,
}

func runProbes(cfg runConfig) *probeCtx {
	pc := &probeCtx{cfg: cfg, out: make(map[string]float64)}
	for _, p := range layerProbes {
		p(pc)
	}
	return pc
}

// perOp calls fn in batches for one probe cell, after one untimed batch,
// and returns nanoseconds per call.
func (pc *probeCtx) perOp(batch int, fn func()) float64 {
	for i := 0; i < batch; i++ {
		fn()
	}
	n := 0
	start := mono.Now()
	for start.Elapsed() < pc.cfg.probeCell() {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	return float64(start.Elapsed().Nanoseconds()) / float64(n)
}

// perOpParallel runs one fn per goroutine on nproc goroutines for one cell
// and returns nanoseconds per call as each goroutine sees it.
func (pc *probeCtx) perOpParallel(mk func(g int) func()) float64 {
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	start := mono.Now()
	for g := 0; g < pc.cfg.nproc; g++ {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			var n uint64
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					fn()
				}
				n += 64
			}
			total.Add(n)
		}(mk(g))
	}
	time.Sleep(pc.cfg.probeCell())
	stop.Store(true)
	wg.Wait()
	return float64(start.Elapsed().Nanoseconds()) * float64(pc.cfg.nproc) / float64(total.Load())
}

// untimed is a latency-sampling stride no run reaches: a throughput cell
// must not pay for two clock reads per op.
const untimed = uint64(1) << 62

// drive runs inst's closed loop for a quarter cell untimed and one cell
// timed, then tears it down, and returns the timed cell. every is the
// latency-sampling stride (1 for a latency cell, untimed for throughput).
func (pc *probeCtx) drive(inst instance, every uint64) *cell {
	p := &pass{cells: map[tmsync.EngineKind]*cell{"": {stats: make(map[string]uint64)}}}
	spec := workloadSpec{name: "probe"}
	runSegment(pc.cfg, spec, "", inst, pc.cfg.probeCell()/4, every, nil, p, false)
	if !p.wedged {
		runSegment(pc.cfg, spec, "", inst, pc.cfg.probeCell(), every, nil, p, true)
	}
	if !p.wedged {
		a, f := inst.finish(pc.cfg.watchdog)
		p.attempted, p.failed = p.attempted+a, p.failed+f
	}
	pc.failed += p.failed
	return p.cells[""]
}

func nsPerOp(c *cell) float64 {
	if c.ops == 0 {
		return 0
	}
	return float64(c.elapsed.Nanoseconds()) / float64(c.ops)
}

var (
	sinkU64 uint64
	sinkDur time.Duration
)
