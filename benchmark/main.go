// Command benchmark is the repository's one ruler: five closed-loop
// workloads driven through the public API with the zero tmsync.Config,
// eleven end-to-end metrics per workload with fixed regression bounds, and
// a separate traced mode for the per-layer numbers. See README.md.
//
//	go run ./benchmark -seed 1                         every workload, plain then traced
//	go run ./benchmark -workload handoff -trace 0      one plain run (the driver's form)
//	go run ./benchmark -workload handoff -trace 1      one traced run: layer metrics + span file
//	go run ./benchmark -repeat 5                       noise calibration
//	go run ./benchmark -compare old.json new.json      judge two result sets by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/mono"
)

// result is what one run reports; its JSON form is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed         = flag.Uint64("seed", 1, "seed of the payload streams, sleeper-poke order and key choice")
		seconds      = flag.Float64("seconds", runSeconds, "measured seconds per run; a plain run splits them into 4 × rounds segments")
		trace        = flag.Int("trace", 0, "1: traced run — per-layer metrics, layer probes and a span file instead of the end-to-end metrics")
		spans        = flag.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>.jsonl)")
		repeat       = flag.Int("repeat", 0, "run this many plain sets back to back and print each end-to-end metric's spread")
		out          = flag.String("out", "", "also write the result set here as JSON (all-workload and -repeat modes)")
		compare      = flag.Bool("compare", false, "compare two result-set files given as arguments; refuses sets whose env differs")
		verbose      = flag.Bool("v", false, "print every timed segment's numbers to stderr")
		declare      = flag.Bool("declare", false, "print BENCHMARK.json as this program defines it, and exit")
	)
	flag.Parse()

	if *declare {
		printDeclaration()
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatalf(2, "benchmark: -compare wants two result-set files")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf(2, "benchmark: unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf(2, "benchmark: -seconds must be positive and -trace 0 or 1")
	}
	nproc := max(2, runtime.NumCPU()&^1)
	runtime.GOMAXPROCS(nproc)
	cfg := runConfig{seed: *seed, seconds: *seconds, nproc: nproc, setups: 13, scale: parsecScale, watchdog: 20 * time.Second, verbose: *verbose}

	if *workloadName == "" {
		os.Exit(orchestrate(cfg, *repeat, *out))
	}
	spec, ok := findWorkload(*workloadName)
	if !ok {
		fatalf(2, "benchmark: unknown workload %q", *workloadName)
	}
	env := newEnv(cfg)
	printEnv(env)
	var res result
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+spec.name+".jsonl")
		}
		res = runTraced(cfg, spec, env, path)
	} else {
		res = runPlain(cfg, spec)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf(2, "benchmark: %v", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// runSeconds is the -seconds the driver passes (BENCHMARK.json run_seconds)
// and the flag's default.
const runSeconds = 16

// printDeclaration writes BENCHMARK.json from the program's own tables, so
// the file the driver reads cannot drift from what the program prints.
func printDeclaration() {
	type why struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	decl := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []why        `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
		EndToEnd: endToEndSpecs(), PerLayer: perLayerSpecs()}
	for _, w := range workloadSpecs {
		decl.Workloads = append(decl.Workloads, why{w.name, w.why})
	}
	b, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		fatalf(2, "benchmark: %v", err)
	}
	fmt.Printf("%s\n", b)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func printEnv(env envBlock) {
	b, err := json.Marshal(env)
	if err != nil {
		fatalf(2, "benchmark: %v", err)
	}
	fmt.Printf("env %s\n", b)
}

// runPlain is the untraced run every end-to-end metric comes from.
func runPlain(cfg runConfig, spec workloadSpec) result {
	p := runPass(cfg, spec, cfg.segment(spec.rounds), nil, spec.rounds)
	vals := endToEnd(p)
	samples := make(map[string]uint64)
	for _, e := range tmsync.EngineKinds {
		samples["op_p90_us."+string(e)] = p.cells[e].hist.n
		samples["ops_per_s."+string(e)] = p.cells[e].ops
	}
	return report(spec, endToEndSpecs(), vals, samples, p.attempted, p.failed)
}

// runTraced is the run the per-layer metrics come from: the workload once
// untraced and once traced at the same (shorter) segment length, the
// lock-based baseline, then the layer probes; spans go to spansPath.
func runTraced(cfg runConfig, spec workloadSpec, env envBlock, spansPath string) result {
	cfg.setups = 0
	plain := runPass(cfg, spec, cfg.tracedSegment(), nil, 1)
	tr := newTracer()
	traced := runPass(cfg, spec, cfg.tracedSegment(), tr, 1)

	var stop atomic.Bool
	w := spec.new(cfg)
	time.AfterFunc(cfg.baselineCell(), func() { stop.Store(true) })
	start := mono.Now()
	baseOps := w.baseline(&stop)
	vals := workloadLayers(plain, traced, tr, float64(baseOps)/start.Elapsed().Seconds())

	probes := runProbes(cfg)
	for k, v := range probes.out {
		vals[k] = v
	}
	samples := make(map[string]uint64)
	for _, e := range tmsync.EngineKinds {
		samples["tm.op_p50_us."+string(e)] = traced.cells[e].hist.n
		samples["tm.op_p99_us."+string(e)] = traced.cells[e].hist.n
		samples["core.sleep_to_signal_p50_us."+string(e)] = tr.wake[e].snapshot().n
	}
	res := report(spec, perLayerSpecs(), vals, samples,
		plain.attempted+traced.attempted, plain.failed+traced.failed+probes.failed)
	if err := tr.writeSpans(spansPath, env); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		res.Correct = false
	} else {
		fmt.Printf("spans %s (%d spans, %d segments)\n", spansPath, len(tr.spans), len(tr.segs))
	}
	return res
}

// report prints every metric of specs by name and unit (sample count and
// bound beside it where it has one) and builds the result.
func report(spec workloadSpec, specs []metricSpec, vals map[string]float64, samples map[string]uint64,
	attempted, failed uint64) result {
	res := result{Attempted: max(attempted, 1), Failed: failed, Metrics: make(map[string]metric)}
	res.Correct = failed == 0
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			fatalf(2, "benchmark: metric %s was declared but not measured", s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		line := fmt.Sprintf("%-9s %-36s %16.4f %-6s", spec.name, s.Name, v, s.Unit)
		if n, ok := samples[s.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if s.Bound > 0 {
			line += fmt.Sprintf(" bound=%g (%s is better)", s.Bound, s.Better)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-9s %-36s %16.6f %-6s failed=%d attempted=%d bound=0\n", spec.name, "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	return res
}
