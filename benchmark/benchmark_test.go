package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tmsync"
)

func testConfig() runConfig {
	return runConfig{seed: 7, seconds: 1.6, nproc: 2, setups: 0, scale: 2, watchdog: 10 * time.Second}
}

func failRatio(attempted, failed uint64) float64 {
	return float64(failed) / float64(max(attempted, 1))
}

func TestSmokeEveryWorkloadPasses(t *testing.T) {
	for _, spec := range workloadSpecs {
		p := runPass(testConfig(), spec, 200*time.Millisecond, nil, 1)
		if p.wedged || p.failed != 0 {
			t.Errorf("%s: wedged=%v, %d of %d operations failed", spec.name, p.wedged, p.failed, p.attempted)
		}
		for name, v := range endToEnd(p) {
			if !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", spec.name, name, v)
			}
		}
	}
}

// runOne drives inst for d and returns its recorders.
func runOne(inst instance, d time.Duration) []*recorder {
	recs := make([]*recorder, inst.workers())
	for i := range recs {
		recs[i] = &recorder{every: 1}
	}
	var stop atomic.Bool
	time.AfterFunc(d, func() { stop.Store(true) })
	inst.segment(&stop, recs)
	return recs
}

func TestRingCheckerSeesLostUpdate(t *testing.T) {
	in := newRingWorkload(testConfig(), 0).build(tmsync.Eager, nil).(*ringInstance)
	runOne(in, 20*time.Millisecond)
	atomic.AddUint64(in.writers[1].slots[5], ^uint64(0)) // one increment lost
	if a, f := in.finish(time.Second); failRatio(a, f) <= 0 {
		t.Fatalf("lost update not reported: %d failed of %d", f, a)
	}
}

func TestBufferCheckerSeesDroppedAndDuplicatedItems(t *testing.T) {
	in := newBufferWorkload(testConfig()).build(tmsync.Lazy, nil).(*bufferInstance)
	recs := runOne(in, 20*time.Millisecond)
	for _, r := range recs {
		if r.failed.Load() != 0 {
			t.Fatalf("clean run reported %d failures", r.failed.Load())
		}
	}
	if a, f := in.finish(time.Second); f != 0 {
		t.Fatalf("clean run: %d failed of %d", f, a)
	}

	c := in.consumers[0]
	c.gets-- // an item a consumer never saw
	if a, f := in.finish(time.Second); failRatio(a, f) <= 0 {
		t.Error("dropped item not reported")
	}
	c.gets++

	dup := bufferItem(0, c.lastSeq[0], 0) // producer 0's latest item, again
	if c.observe(dup) {
		t.Error("duplicated item accepted by the order check")
	}
	if a, f := in.finish(time.Second); failRatio(a, f) <= 0 {
		t.Error("duplicated item not reported by the tally")
	}
}

func TestHandoffCheckerSeesMissingReply(t *testing.T) {
	in := newHandoffWorkload(testConfig()).build(tmsync.HTM, nil).(*handoffInstance)
	runOne(in, 20*time.Millisecond)
	in.pairs[0].served--
	if a, f := in.finish(time.Second); failRatio(a, f) <= 0 {
		t.Fatal("missing reply not reported")
	}
}

func TestParsecCheckerSeesWrongChecksum(t *testing.T) {
	w := newParsecWorkload(testConfig())
	w.refs[3] ^= 1
	recs := runOne(w.build(tmsync.Hybrid, nil), time.Millisecond)
	if r := recs[0]; failRatio(r.ops+r.failed.Load(), r.failed.Load()) <= 0 {
		t.Fatalf("wrong checksum not reported: ops=%d failed=%d", r.ops, r.failed.Load())
	}
}

func TestWatchdogReportsSleeperThatNeverExits(t *testing.T) {
	var dump bytes.Buffer
	dumpTo = &dump
	defer func() { dumpTo = os.Stderr }()

	in := newRingWorkload(testConfig(), ringSleepers).build(tmsync.Lazy, nil).(*ringInstance)
	runOne(in, 20*time.Millisecond)
	// The lost wakeup: sleeper 3's final poke goes to a word nobody waits on.
	lost := in.sleepers[3]
	in.sleepers[3] = &sleeper{word: new(uint64)}
	a, f := in.finish(200 * time.Millisecond)
	if failRatio(a, f) <= 0 {
		t.Errorf("parked sleeper not reported: %d failed of %d", f, a)
	}
	for _, want := range []string{"watchdog", "CondSync.WaitingLen() = 1", "goroutine "} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("watchdog report lacks %q", want)
		}
	}
	// Let the sleeper go so the test leaves nothing running.
	closer := in.sys.NewThread()
	poke(closer, lost, sleeperExit)
	closer.Detach()
	in.parked.Wait()
}

func TestTracedRunReportsEveryLayerMetricAndSpans(t *testing.T) {
	cfg := testConfig()
	cfg.seconds = 0.8
	spec, _ := findWorkload("handoff")
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	res := runTraced(cfg, spec, newEnv(cfg), path)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed: %+v", res)
	}
	for _, s := range perLayerSpecs() {
		if _, ok := res.Metrics[s.Name]; !ok {
			t.Errorf("per-layer metric %s missing", s.Name)
		}
	}
	if len(res.Metrics) != len(perLayerSpecs()) {
		t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayerSpecs()))
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var head struct {
		Segments []segSpan `json:"segments"`
	}
	if err := json.Unmarshal(lines[0], &head); err != nil || len(head.Segments) != len(tmsync.EngineKinds) {
		t.Fatalf("span file header: %v, %d segments", err, len(head.Segments))
	}
	var sp []any
	if len(lines) < 2 || json.Unmarshal(lines[1], &sp) != nil || len(sp) != 6 {
		t.Fatalf("span file has no well-formed span line")
	}
}

func TestCompareRefusesDifferentTopology(t *testing.T) {
	segs := func(s float64) map[string]float64 { return map[string]float64{"private": s} }
	a := envBlock{NumCPU: 2, SegmentSeconds: segs(2)}
	if err := a.comparable(envBlock{NumCPU: 2, SegmentSeconds: segs(2)}); err != nil {
		t.Errorf("same env refused: %v", err)
	}
	for _, b := range []envBlock{{NumCPU: 4, SegmentSeconds: segs(2)}, {NumCPU: 2, SegmentSeconds: segs(3)}} {
		if a.comparable(b) == nil {
			t.Errorf("env %+v accepted against %+v", b, a)
		}
	}
}

func TestHistogramQuantilesAndQuartiles(t *testing.T) {
	var h histogram
	for ns := 1; ns <= 100000; ns++ {
		h.add(time.Duration(ns))
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := h.quantileNS(q), q*100000; math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile %.2f = %.0f ns, want %.0f within 1%%", q, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestImports keeps the benchmark honest about what it measures through:
// nothing may lean on the old measurement pipeline, and workload files see
// the library only as a user would plus the workload packages.
func TestImports(t *testing.T) {
	forbidden := regexp.MustCompile(`^tmsync/internal/(perf|bench|harness|stats)$`)
	workloadOK := regexp.MustCompile(`^tmsync(/internal/(buffer|parsecsim|mech|mono|tm))?$`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if forbidden.MatchString(path) {
				t.Errorf("%s imports %s", file, path)
			}
			if strings.HasPrefix(file, "workload_") && strings.HasPrefix(path, "tmsync") && !workloadOK.MatchString(path) {
				t.Errorf("workload file %s imports %s", file, path)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, which the driver
// reads, equal to the tables the program prints from.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", decl.Paths)
	}
	if len(decl.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, program has %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d in the program", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, got[i], want[i])
			}
			if !name.MatchString(want[i].Name) || !unit.MatchString(want[i].Unit) || seen[want[i].Name] || want[i].Bound > 0.25 {
				t.Errorf("%s %+v breaks the declaration rules", kind, want[i])
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndSpecs())
	check("per_layer", decl.PerLayer, perLayerSpecs())
	if len(decl.PerLayer) > 128 || len(decl.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(decl.EndToEnd), len(decl.PerLayer))
	}
}
