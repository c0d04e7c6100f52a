package main

import (
	"maps"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/mech"
	"tmsync/internal/parsecsim"
)

// The paper's second evaluation (Figs 2.6–2.8): one op is a full cycle of
// the eight PARSEC skeletons at parsecScale with nproc threads; cycle c
// uses parsecMechs[c mod 3]. One goroutine issues the cycles; the
// skeletons start their own workers.
const parsecScale = 32

var parsecMechs = [3]mech.Mechanism{mech.WaitPred, mech.Retry, mech.Await}

type parsecWorkload struct {
	cfg   runConfig
	refs  []uint64 // Benchmark.Reference(cfg.scale), in parsecsim.Benchmarks order
	names []string // span names, same order
}

func newParsecWorkload(cfg runConfig) *parsecWorkload {
	w := &parsecWorkload{cfg: cfg}
	for i := range parsecsim.Benchmarks {
		w.refs = append(w.refs, parsecsim.Benchmarks[i].Reference(cfg.scale))
		w.names = append(w.names, "parsecsim."+parsecsim.Benchmarks[i].Name)
	}
	return w
}

// parsecThreads is the largest thread count ≤ nproc the skeleton accepts
// (fluidanimate wants a power of two, streamcluster an even count).
func parsecThreads(b *parsecsim.Benchmark, nproc int) int {
	n := nproc
	for n > 1 && !b.ValidThreads(n) {
		n--
	}
	return n
}

type parsecInstance struct {
	w      *parsecWorkload
	engine tmsync.EngineKind
	tr     *tracer
	cycles uint64
	// The skeletons register fresh thread handles on every run and a System
	// never forgets one (ids end at 32767, and quiescence walks them all),
	// so each cycle gets a System of its own: per-cycle cost stays put
	// however long the segment is. Their counters are summed here.
	retired map[string]uint64
	live    atomic.Pointer[tmsync.System]
}

func (w *parsecWorkload) build(e tmsync.EngineKind, tr *tracer) instance {
	return &parsecInstance{w: w, engine: e, tr: tr, retired: make(map[string]uint64)}
}

func (in *parsecInstance) workers() int             { return 1 }
func (in *parsecInstance) stats() map[string]uint64 { return maps.Clone(in.retired) }

func (in *parsecInstance) waiting() int {
	if sys := in.live.Load(); sys != nil {
		return sys.CS.WaitingLen()
	}
	return 0
}

func (in *parsecInstance) segment(stop *atomic.Bool, recs []*recorder) {
	r := recs[0]
	for !stop.Load() {
		t0 := r.begin(in.cycles)
		bad := in.cycle(r)
		r.end(t0, "parsec.cycle", parsecMechs[in.cycles%3])
		in.cycles++
		if bad == 0 {
			r.ops++
		} else {
			r.failed.Add(1)
		}
	}
	r.exited.Store(true)
}

// cycle runs the eight skeletons once and returns how many checksums
// differed from the reference.
func (in *parsecInstance) cycle(r *recorder) (bad int) {
	m := parsecMechs[in.cycles%3]
	s0 := r.beginSpan()
	sys := tmsync.New(in.engine, tmsync.Config{})
	r.endSpan(s0, "tmsync.New", "")
	if in.tr != nil {
		in.tr.hook(sys, in.engine)
	}
	in.live.Store(sys)
	k := &parsecsim.Kit{Mech: m, Sys: sys.System}
	for i := range parsecsim.Benchmarks {
		b := &parsecsim.Benchmarks[i]
		s0 := r.beginSpan()
		sum := b.Run(k, parsecThreads(b, in.w.cfg.nproc), in.w.cfg.scale)
		r.endSpan(s0, in.w.names[i], m)
		if sum != in.w.refs[i] {
			bad++
		}
	}
	for name, v := range sys.Stats.Snapshot() {
		in.retired[name] += v
	}
	return bad
}

func (in *parsecInstance) finish(time.Duration) (attempted, failed uint64) { return 0, 0 }

// baseline is the same cycle on the Pthreads kit.
func (w *parsecWorkload) baseline(stop *atomic.Bool) uint64 {
	var cycles uint64
	for !stop.Load() {
		w.pthreadsCycle()
		cycles++
	}
	return cycles
}

func (w *parsecWorkload) pthreadsCycle() {
	k := &parsecsim.Kit{Mech: mech.Pthreads}
	for i := range parsecsim.Benchmarks {
		b := &parsecsim.Benchmarks[i]
		b.Run(k, parsecThreads(b, w.cfg.nproc), w.cfg.scale)
	}
}
