package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/mono"
)

// runConfig is everything one measured run depends on besides the code.
type runConfig struct {
	seed     uint64
	seconds  float64       // measured time of the whole run
	nproc    int           // load-generating goroutines, = GOMAXPROCS
	setups   int           // timed set-ups thrown away before the rounds (each round adds one more)
	scale    int           // PARSEC skeleton scale (parsecScale; the self-test shrinks it)
	watchdog time.Duration // how long a segment may overrun before it counts as wedged
	verbose  bool          // print every timed segment's numbers to stderr
}

// A plain run spends `seconds` on rounds × 4 timed segments: each round
// visits every engine once, even rounds forwards and odd rounds reversed,
// so slow drift of the machine lands equally on all four. Many short
// segments, not two long ones, because what moves these numbers between
// runs is the state a segment finds itself in (heap layout, which
// goroutine ends up parked, who shares a core) and bursts from the
// machine's neighbours; each segment is a fresh draw, and the
// interquartile mean over an engine's segments ignores the bursts.
// A traced run spends half of `seconds` on 4 plain + 4 traced segments and
// leaves the rest to the layer probes.
func (c runConfig) segment(rounds int) time.Duration {
	return time.Duration(c.seconds / float64(4*rounds) * float64(time.Second))
}

func (c runConfig) tracedSegment() time.Duration {
	return time.Duration(c.seconds / 16 * float64(time.Second))
}

// warmup is the untimed stretch before every timed segment.
func warmup(segment time.Duration) time.Duration { return segment / 8 }

// probeCell is the timed length of one layer-probe cell.
func (c runConfig) probeCell() time.Duration {
	return time.Duration(c.seconds / 256 * float64(time.Second))
}

func (c runConfig) baselineCell() time.Duration {
	return time.Duration(c.seconds / 32 * float64(time.Second))
}

// workload is one benchmark workload after its engine-independent set-up.
type workload interface {
	// build constructs the system under test for one engine: System,
	// threads, data, parked sleepers. tr is nil in untraced runs.
	build(e tmsync.EngineKind, tr *tracer) instance
	// baseline runs the same closed loop on the lock-based equivalent
	// until stop is set and returns the operations completed: a canary
	// for machine drift, not a target.
	baseline(stop *atomic.Bool) uint64
}

// instance is one workload × engine cell, reused across its segments.
type instance interface {
	workers() int
	// segment runs one closed-loop segment — every worker issues its next
	// op when the last one returned — until stop is set, and returns once
	// all workers have left.
	segment(stop *atomic.Bool, recs []*recorder)
	// stats is the cumulative Stats.Snapshot of the system(s) driven.
	stats() map[string]uint64
	// waiting is CondSync.WaitingLen of the live system (watchdog report).
	waiting() int
	// finish runs the end-of-workload checks and tears the cell down,
	// returning the attempted and failed operations it adds.
	finish(watchdog time.Duration) (attempted, failed uint64)
}

type workloadSpec struct {
	name   string
	why    string
	every  uint64 // latency sampling stride in untraced runs
	rounds int    // rounds of a plain run: each rebuilds the systems and visits every engine once
	new    func(cfg runConfig) workload
}

var workloadSpecs = []workloadSpec{
	{"private", "disjoint per-goroutine rings, no waiter: tm driver + barriers + clock + locktable + Stats, core idle (the scaling cell)", 16, 16,
		func(cfg runConfig) workload { return newRingWorkload(cfg, 0) }},
	{"sleepers", "private's writers plus 256 parked Await sleepers: core scans waiters without waking them (stripes, batching, coalescing)", 16, 16,
		func(cfg runConfig) workload { return newRingWorkload(cfg, ringSleepers) }},
	{"handoff", "request/response pairs over capacity-1 mailboxes: nearly every op sleeps and is woken (Deschedule, sem, wake latency)", 1, 16,
		func(cfg runConfig) workload { return newHandoffWorkload(cfg) }},
	{"buffer", "the paper's bounded buffer (Figs 2.3-2.5), capacity 4: conflict aborts, panic/recover, back-off, validation", 16, 16,
		func(cfg runConfig) workload { return newBufferWorkload(cfg) }},
	{"parsec", "one op is a cycle of the eight PARSEC skeletons (Figs 2.6-2.8): barriers, pipelines, counters, many read-only commits", 1, 4,
		func(cfg runConfig) workload { return newParsecWorkload(cfg) }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// roundOrder is the engine order of round r: forwards, then reversed.
func roundOrder(r int) []tmsync.EngineKind {
	out := append([]tmsync.EngineKind(nil), tmsync.EngineKinds...)
	if r%2 == 1 {
		slices.Reverse(out)
	}
	return out
}

// cell accumulates one engine's timed segments: pooled totals for the
// layer metrics, and each segment's own rate, p90 latency and allocations
// per op for the end-to-end ones.
type cell struct {
	ops     uint64
	elapsed time.Duration
	mallocs uint64
	hist    histogram
	stats   map[string]uint64 // Stats delta over the timed segments

	rates, p90s, allocs []float64 // one entry per timed segment
}

func (c *cell) opsPerS() float64 {
	if c.elapsed <= 0 {
		return 0
	}
	return float64(c.ops) / c.elapsed.Seconds()
}

func (c *cell) per(counter string, denom uint64) float64 {
	if denom == 0 {
		return 0
	}
	return float64(c.stats[counter]) / float64(denom)
}

// pass is one set-up plus its segments over all engines.
type pass struct {
	cells     map[tmsync.EngineKind]*cell
	attempted uint64
	failed    uint64
	setupS    float64
	memLiveMB float64 // HeapAlloc after a forced GC, before teardown
	memSysMB  float64 // MemStats.Sys at the same point
	wedged    bool
}

// runPass runs `rounds` rounds. A round builds the workload afresh for all
// four engines (one timed set-up), runs warm-up + timed segment of length
// seg per engine, then checks and tears down. Rebuilding per round
// matters: where the heap puts a system's words decides which orecs and
// stripes they share, and that alone moves a contended workload by several
// per cent for as long as the system lives — so a run averages over several
// layouts instead of drawing one. cfg.setups further set-ups, timed and
// thrown away, come first; setup_s is the interquartile mean of all of them
// (set-up time is bimodal — the orec tables land on fresh or on recycled
// pages — so a median would flip between the modes). tr, when non-nil,
// also records spans.
func runPass(cfg runConfig, spec workloadSpec, seg time.Duration, tr *tracer, rounds int) *pass {
	p := &pass{cells: make(map[tmsync.EngineKind]*cell)}
	for _, e := range tmsync.EngineKinds {
		p.cells[e] = &cell{stats: make(map[string]uint64)}
	}
	var setups []float64
	setup := func() map[tmsync.EngineKind]instance {
		runtime.GC() // every set-up starts from the same heap
		t0 := mono.Now()
		w := spec.new(cfg)
		insts := make(map[tmsync.EngineKind]instance)
		for _, e := range tmsync.EngineKinds {
			insts[e] = w.build(e, tr)
		}
		setups = append(setups, t0.Elapsed().Seconds())
		return insts
	}
	for i := 0; i < cfg.setups; i++ {
		p.finishAll(cfg, setup())
	}
	every := spec.every
	if tr != nil {
		every = 1
	}
	for r := 0; r < rounds && !p.wedged; r++ {
		insts := setup()
		for _, e := range roundOrder(r) {
			runtime.GC()
			runSegment(cfg, spec, e, insts[e], warmup(seg), every, nil, p, false)
			if !p.wedged {
				runSegment(cfg, spec, e, insts[e], seg, every, tr, p, true)
			}
			if p.wedged {
				break
			}
		}
		if r == rounds-1 {
			// Memory is read with the systems still standing (sleepers
			// parked, threads registered) and the garbage gone: the heap
			// the workload holds. Stacks are left out: the runtime's
			// stack caches wobble by ±60 KB between identical runs, and
			// the parked goroutines' stacks are the benchmark's own.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p.memLiveMB = float64(ms.HeapAlloc) / (1 << 20)
			p.memSysMB = float64(ms.Sys) / (1 << 20)
		}
		if !p.wedged {
			p.finishAll(cfg, insts)
		}
	}
	p.setupS = iqm(setups)
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "setups %v\n", setups)
	}
	return p
}

func (p *pass) finishAll(cfg runConfig, insts map[tmsync.EngineKind]instance) {
	for _, e := range tmsync.EngineKinds {
		a, f := insts[e].finish(cfg.watchdog)
		p.attempted += a
		p.failed += f
	}
}

// runSegment drives inst for dur and folds the outcome into p; only timed
// segments feed the engine's cell, but failures count wherever they occur.
func runSegment(cfg runConfig, spec workloadSpec, e tmsync.EngineKind, inst instance,
	dur time.Duration, every uint64, tr *tracer, p *pass, timed bool) {
	origin := mono.Now()
	segID := int32(-1)
	if tr != nil {
		origin = tr.origin
		segID = int32(len(tr.segs))
		tr.segs = append(tr.segs, segSpan{Workload: spec.name, Engine: string(e)})
	}
	recs := make([]*recorder, inst.workers())
	for i := range recs {
		recs[i] = &recorder{every: every, origin: origin, seg: segID, gor: int32(i)}
		if tr != nil {
			recs[i].spans = make([]span, 0, spansPerWorker)
		}
	}
	before := inst.stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var stop atomic.Bool
	done := make(chan struct{})
	start := mono.Now()
	startNS := int64(origin.Elapsed())
	go func() {
		inst.segment(&stop, recs)
		close(done)
	}()
	time.Sleep(dur)
	stop.Store(true)
	if !waitOrDump(done, cfg.watchdog, spec.name+"/"+string(e), inst.waiting) {
		p.wedged = true
		for _, r := range recs {
			if !r.exited.Load() {
				p.attempted++
				p.failed++
			}
		}
		return
	}
	elapsed := start.Elapsed()
	runtime.ReadMemStats(&m1)
	after := inst.stats()

	var ops, dropped uint64
	var hist histogram
	c := p.cells[e]
	for _, r := range recs {
		ops += r.ops
		p.attempted += r.ops + r.failed.Load()
		p.failed += r.failed.Load()
		dropped += r.dropped
		hist.merge(&r.hist)
		if tr != nil {
			tr.spans = append(tr.spans, r.spans...)
		}
	}
	if tr != nil {
		s := &tr.segs[segID]
		s.StartNS, s.EndNS = startNS, int64(origin.Elapsed())
		s.Ops, s.Dropped, s.OpsPerS = ops, dropped, float64(ops)/elapsed.Seconds()
	}
	if timed {
		c.ops += ops
		c.elapsed += elapsed
		c.mallocs += m1.Mallocs - m0.Mallocs
		c.hist.merge(&hist)
		for k, v := range after {
			c.stats[k] += v - before[k]
		}
		c.rates = append(c.rates, float64(ops)/elapsed.Seconds())
		c.p90s = append(c.p90s, hist.quantileUS(0.9))
		c.allocs = append(c.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(max(ops, 1)))
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "segment %-8s %-6s %12.1f ops/s  p50 %10.3f us  p90 %10.3f us  %8.3f allocs/op\n",
				spec.name, e, c.rates[len(c.rates)-1], hist.quantileUS(0.5), c.p90s[len(c.p90s)-1], c.allocs[len(c.allocs)-1])
		}
	}
}

// dumpTo receives the watchdog's report; the self-test redirects it.
var dumpTo io.Writer = os.Stderr

// waitOrDump waits for done; if it does not come within the watchdog
// period it prints what is asleep and a goroutine dump and reports false.
// A lost wakeup shows up here, and the caller counts it as failed ops.
func waitOrDump(done <-chan struct{}, watchdog time.Duration, what string, waiting func() int) bool {
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(dumpTo, "benchmark: watchdog: %s did not finish within %v; CondSync.WaitingLen() = %d\n%s\n",
		what, watchdog, waiting(), buf)
	return false
}
