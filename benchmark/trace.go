package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/mech"
	"tmsync/internal/mono"
)

// spansPerWorker caps the spans one goroutine keeps per segment. Every op
// of a traced segment is still timed (that cost is what
// bench.trace_overhead_ratio reports); spans past the cap are counted as
// dropped instead of stored, so a 2 M ops/s workload cannot turn the trace
// into gigabytes.
const spansPerWorker = 4096

// span is one call from the benchmark into tmsync/buffer/parsecsim.
// Times are nanoseconds since the run's origin; seg is the index of the
// segment span that caused it, which also names the engine.
type span struct {
	name       string
	mech       mech.Mechanism
	start, end int64
	seg, gor   int32
}

// segSpan is the parent span of one traced segment.
type segSpan struct {
	Workload string  `json:"workload"`
	Engine   string  `json:"engine"`
	StartNS  int64   `json:"start_ns"`
	EndNS    int64   `json:"end_ns"`
	Ops      uint64  `json:"ops"`
	Dropped  uint64  `json:"spans_dropped"`
	OpsPerS  float64 `json:"ops_per_s"`
}

// recorder is one load-generating goroutine's private slot: op counts, the
// latency histogram and (traced runs) its span buffer. Each goroutine owns
// one exclusively for a segment; the trailing pad keeps the hot head of
// the next recorder off this one's last cache line.
//
//tm:padded
type recorder struct {
	ops     uint64        // operations completed and verified
	failed  atomic.Uint64 // operations whose check failed (a pair's two ends share one recorder)
	dropped uint64        // spans not stored (cap reached)
	every   uint64        // time one op in every `every`; 1 = all
	exited  atomic.Bool
	seg     int32
	gor     int32
	origin  mono.Time
	spans   []span // nil unless the segment is traced
	hist    histogram
	_       [24]byte
}

// begin returns the start offset of op k if it is to be timed, else -1.
func (r *recorder) begin(k uint64) int64 {
	if r.every > 1 && k%r.every != 0 {
		return -1
	}
	return int64(r.origin.Elapsed())
}

// end closes the timing begin opened: the op's latency goes to the
// histogram and, in a traced segment, a span labelled name and m is kept.
func (r *recorder) end(t0 int64, name string, m mech.Mechanism) {
	if t0 < 0 {
		return
	}
	t1 := int64(r.origin.Elapsed())
	r.hist.add(time.Duration(t1 - t0))
	r.keep(span{name: name, mech: m, start: t0, end: t1, seg: r.seg, gor: r.gor})
}

// beginSpan and endSpan bracket a library call that is not itself an op
// (a poke, a system construction): a span in traced segments, nothing else.
func (r *recorder) beginSpan() int64 {
	if r.spans == nil {
		return -1
	}
	return int64(r.origin.Elapsed())
}

func (r *recorder) endSpan(t0 int64, name string, m mech.Mechanism) {
	if t0 >= 0 {
		r.keep(span{name: name, mech: m, start: t0, end: int64(r.origin.Elapsed()), seg: r.seg, gor: r.gor})
	}
}

func (r *recorder) keep(s span) {
	switch {
	case r.spans == nil:
	case len(r.spans) == cap(r.spans):
		r.dropped++
	default:
		r.spans = append(r.spans, s)
	}
}

// atomicHist is a histogram fed from many goroutines at once (the
// WakeLatency hook runs on whichever thread was woken).
type atomicHist struct {
	counts [histBuckets]atomic.Uint32
}

func (a *atomicHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	a.counts[histIndex(uint64(d))].Add(1)
}

func (a *atomicHist) snapshot() *histogram {
	h := &histogram{}
	for i := range a.counts {
		c := a.counts[i].Load()
		h.counts[i] = c
		h.n += uint64(c)
	}
	return h
}

// tracer owns the run's time origin and everything a traced run collects.
type tracer struct {
	origin mono.Time
	segs   []segSpan
	spans  []span
	wake   map[tmsync.EngineKind]*atomicHist
}

func newTracer() *tracer {
	tr := &tracer{origin: mono.Now(), wake: make(map[tmsync.EngineKind]*atomicHist)}
	for _, e := range tmsync.EngineKinds {
		tr.wake[e] = &atomicHist{}
	}
	return tr
}

// hook installs the public WakeLatency hook on sys; it must run before any
// of sys's threads does.
func (tr *tracer) hook(sys *tmsync.System, e tmsync.EngineKind) {
	sys.WakeLatency = tr.wake[e].add
}

// writeSpans writes the span file: one JSON header line (env, segment
// spans), then one line per op span as
// [segment, goroutine, name, mechanism, start_ns, end_ns].
func (tr *tracer) writeSpans(path string, env envBlock) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("span file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	head, err := json.Marshal(struct {
		Env      envBlock  `json:"env"`
		Columns  []string  `json:"columns"`
		Segments []segSpan `json:"segments"`
	}{env, []string{"segment", "goroutine", "name", "mechanism", "start_ns", "end_ns"}, tr.segs})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(w, "%s\n", head)
	for _, s := range tr.spans {
		fmt.Fprintf(w, "[%d,%d,%q,%q,%d,%d]\n", s.seg, s.gor, s.name, string(s.mech), s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
