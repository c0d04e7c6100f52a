// Command tmcheck is the cross-engine differential checker: it generates
// randomized concurrent scenarios and runs each one under every TM engine
// (eager STM, lazy STM, simulated HTM, hybrid) × every applicable
// condition-synchronization mechanism, diffing the observed final state
// against a sequential oracle. Any deviation — state mismatch, token
// conservation failure, per-producer FIFO violation, or a wedged (lost
// wakeup) run — is reported with a one-line seed that reproduces it.
//
// Usage:
//
//	go run ./cmd/tmcheck -n 50 -seed 1          # 50 scenarios, all engines
//	go run ./cmd/tmcheck -n 1 -seed 123 -v      # replay one failure, verbose
//	go run ./cmd/tmcheck -budget 30s            # as many scenarios as fit
//	go run ./cmd/tmcheck -parsec -scale 2       # PARSEC skeletons instead
//	go run ./cmd/tmcheck -n 5 -inject           # prove the checker detects faults
//	go run ./cmd/tmcheck -n 15 -clock pof       # GV4 pass-on-CAS-failure commit clock
//	go run ./cmd/tmcheck -n 15 -clock deferred  # GV5-style deferred clock
//	go run ./cmd/tmcheck -n 20 -zipf 1.2        # Zipf-skewed key contention
//	go run ./cmd/tmcheck -n 20 -read-mostly     # read-mostly long transactions
//	go run ./cmd/tmcheck -n 10 -phases 20:counters,20:readmostly,10:map  # phase-shifting mix
//	go run ./cmd/tmcheck -n 5 -record traces/   # capture each run as a replayable trace
//	go run ./cmd/tmcheck -replay 'traces/*.trace'  # differential replay of recorded traces
//
// Mode flags are validated for coherence before anything runs: -stripes
// must be a power of two within the table and -clock must name a known
// commit-clock mode (global, pof, deferred). -replay reruns
// committed traces, so it contradicts every flag that shapes generation
// (-seed, -n, -threads, -ops, -zipf, -read-mostly, -phases, -inject,
// -parsec, -record); knob flags remain allowed and override the trace's
// stamped knobs field by field. Nonsensical combinations exit 2 instead
// of silently running just one of the modes.
//
// Exit status is 0 iff every execution matched its oracle (inverted under
// -inject: the run fails if any injected fault goes undetected).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tmsync/internal/clock"
	"tmsync/internal/harness"
	"tmsync/internal/locktable"
	"tmsync/internal/mech"
	"tmsync/internal/mono"
	"tmsync/internal/trace"
)

func main() {
	n := flag.Int("n", 50, "number of randomized scenarios")
	seed := flag.Uint64("seed", 1, "base seed; scenario i uses seed+i, so any failure replays with -n 1 -seed <printed>")
	threads := flag.Int("threads", 0, "threads per scenario (0 = seed-derived 2-4)")
	ops := flag.Int("ops", 0, "approx ops per thread (0 = seed-derived 8-24)")
	budget := flag.Duration("budget", 0, "stop starting new scenarios after this much time (0 = no budget)")
	engine := flag.String("engine", "", "restrict to one engine (default: all four)")
	stripes := flag.Int("stripes", 0, "orec-table stripe count for every system (0 = default); any power of two must yield identical outcomes")
	clockMode := flag.String("clock", "", "commit-clock mode for every system: global (default), pof (pass-on-CAS-failure), or deferred (no per-commit clock bump); a pure timestamp-protocol knob, so outcomes must be identical")
	only := flag.String("mech", "", "restrict to one mechanism (default: all applicable)")
	parsec := flag.Bool("parsec", false, "check the eight PARSEC skeletons instead of random scenarios")
	scale := flag.Int("scale", 1, "PARSEC workload scale (with -parsec)")
	inject := flag.Bool("inject", false, "inject a deliberate invariant violation into every scenario; exit 0 iff all are caught")
	zipf := flag.Float64("zipf", 0, "Zipf exponent for key selection in generated scenarios (0 = uniform); skews contention onto a few hot keys")
	readMostly := flag.Bool("read-mostly", false, "generate read-mostly long transactions (wide read scans with one commutative write)")
	phases := flag.String("phases", "", "phase-shifting workload schedule `ops:mix,ops:mix,...` (mixes: "+strings.Join(harness.Mixes, ", ")+")")
	record := flag.String("record", "", "record one execution of every scenario as a replayable trace into this `dir`")
	replay := flag.String("replay", "", "differentially replay the traces matching this `glob` instead of generating scenarios")
	verbose := flag.Bool("v", false, "per-scenario progress and the engine × mechanism breakdown")
	flag.Parse()

	// Flag-coherence validation. Each mode flag selects one experiment;
	// some overlap (a clock mode at a pinned stripe count is a meaningful
	// cross), others contradict each other outright, and a contradiction
	// accepted silently is a green run that never tested what the
	// invocation claimed.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tmcheck: "+format+"\n", args...)
		os.Exit(2)
	}
	if *stripes < 0 || (*stripes > 0 && *stripes&(*stripes-1) != 0) || *stripes > locktable.DefaultSize {
		fail("-stripes %d must be a power of two in [1, %d] (or 0 for the default)", *stripes, locktable.DefaultSize)
	}
	if *parsec && *inject {
		// Fault injection rewrites generated programs; the PARSEC
		// skeletons are fixed workloads with nothing to inject into.
		fail("-inject applies to randomized scenarios only, not -parsec")
	}
	if *zipf < 0 {
		fail("-zipf %g must be >= 0", *zipf)
	}
	if _, err := clock.ParseMode(*clockMode); err != nil {
		fail("-clock: %v", err)
	}
	for _, genFlag := range []string{"zipf", "read-mostly", "phases", "record"} {
		if explicit[genFlag] && *parsec {
			// The PARSEC skeletons are fixed workloads: nothing to skew,
			// reshape, or record as an op program.
			fail("-%s applies to randomized scenarios only, not -parsec", genFlag)
		}
	}
	if *readMostly && *phases != "" {
		fail("-read-mostly names a default mix and is ignored under -phases; put readmostly in the schedule instead")
	}
	var phaseSchedule []harness.Phase
	if *phases != "" {
		var err error
		if phaseSchedule, err = harness.ParsePhases(*phases); err != nil {
			fail("-phases: %v", err)
		}
	}
	if *replay != "" {
		// Replay reruns committed programs; every flag that shapes
		// generation would be silently ignored, so reject the combination.
		for _, genFlag := range []string{"seed", "n", "threads", "ops", "inject", "parsec", "scale", "zipf", "read-mostly", "phases", "record"} {
			if explicit[genFlag] {
				fail("-replay reruns recorded traces; -%s shapes generation and contradicts it", genFlag)
			}
		}
	}

	engines := harness.Engines
	if *engine != "" {
		ok := false
		for _, e := range harness.Engines {
			if e == *engine {
				ok = true
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "tmcheck: unknown engine %q (have %s)\n", *engine, strings.Join(harness.Engines, ", "))
			os.Exit(2)
		}
		engines = []string{*engine}
	}

	knobs := harness.Knobs{Stripes: *stripes, ClockMode: *clockMode}

	var rep harness.Report
	start := mono.Now()
	scenarios := 0

	runOne := func(s *harness.Scenario, k harness.Knobs) {
		results := harness.RunScenarioKnobs(s, engines, mech.Mechanism(*only), k)
		rep.Add(results)
		scenarios++
		failed := 0
		for i := range results {
			if results[i].Failed() {
				failed++
				if !*inject {
					fmt.Println(results[i].String())
				}
			}
		}
		if *verbose {
			fmt.Printf("%-12s threads=%d runs=%d failed=%d\n", s.Name, s.Threads, len(results), failed)
		}
	}

	// recordOne captures one execution of s (first selected engine, first
	// applicable mechanism) and writes it as a trace file the -replay mode
	// and the committed-fixture suite can rerun.
	recordOne := func(s *harness.Scenario) {
		recMech := harness.MechsFor(engines[0])[0]
		if *only != "" {
			found := false
			for _, m := range harness.MechsFor(engines[0]) {
				if m == mech.Mechanism(*only) {
					found = true
				}
			}
			if !found {
				fail("-record: mechanism %q does not run on engine %q", *only, engines[0])
			}
			recMech = mech.Mechanism(*only)
		}
		tr, res, err := harness.Record(s, engines[0], recMech, knobs)
		if err != nil {
			fail("-record: %v", err)
		}
		rep.Add([]harness.Result{res})
		if res.Failed() && !*inject {
			fmt.Println(res.String())
		}
		path := filepath.Join(*record, s.Name+".trace")
		f, err := os.Create(path)
		if err != nil {
			fail("-record: %v", err)
		}
		if err := trace.Encode(f, tr); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fail("-record: writing %s: %v", path, err)
		}
		if *verbose {
			fmt.Printf("recorded %s (%d events)\n", path, len(tr.Events))
		}
	}

	switch {
	case *replay != "":
		files, err := filepath.Glob(*replay)
		if err != nil {
			fail("-replay: bad pattern %q: %v", *replay, err)
		}
		if len(files) == 0 {
			fail("-replay: %q matched no trace files", *replay)
		}
		sort.Strings(files)
		for _, file := range files {
			if *budget > 0 && start.Elapsed() > *budget {
				fmt.Printf("# budget %v exhausted before %s\n", *budget, file)
				break
			}
			f, err := os.Open(file)
			if err != nil {
				fail("-replay: %v", err)
			}
			tr, err := trace.Decode(f)
			f.Close()
			if err != nil {
				fail("-replay: %s: %v", file, err)
			}
			s, stamped, err := harness.ReplayTrace(tr)
			if err != nil {
				fail("-replay: %s: %v", file, err)
			}
			// Start from the trace's stamped knobs; explicit CLI knob flags
			// override field by field.
			k := stamped
			if explicit["stripes"] {
				k.Stripes = knobs.Stripes
			}
			if explicit["clock"] {
				k.ClockMode = *clockMode
			}
			s.Name = filepath.Base(file)
			runOne(s, k)
		}
	case *parsec:
		for _, s := range harness.ParsecScenarios(*threads, *scale) {
			if *budget > 0 && start.Elapsed() > *budget {
				break
			}
			runOne(s, knobs)
		}
	default:
		if *record != "" {
			if err := os.MkdirAll(*record, 0o755); err != nil {
				fail("-record: %v", err)
			}
		}
		for i := 0; i < *n; i++ {
			if *budget > 0 && start.Elapsed() > *budget {
				fmt.Printf("# budget %v exhausted after %d of %d scenarios\n", *budget, i, *n)
				break
			}
			s := harness.Generate(*seed+uint64(i), harness.GenConfig{
				Threads:     *threads,
				Ops:         *ops,
				InjectFault: *inject,
				Zipf:        *zipf,
				ReadMostly:  *readMostly,
				Phases:      phaseSchedule,
			})
			runOne(s, knobs)
			if *record != "" {
				recordOne(s)
			}
		}
	}

	failures := rep.Failures()
	fmt.Printf("\n# %d scenario(s), %v elapsed\n", scenarios, start.Elapsed().Round(time.Millisecond))
	fmt.Print(rep.EngineTable())
	if rep.Runs() == 0 {
		// An OK verdict over zero executions would be vacuous — the
		// -engine/-mech filters selected an inapplicable combination
		// (e.g. retry-orig needs STM metadata the hardware engines lack).
		fmt.Printf("\nFAIL: no executions selected — mechanism %q does not run on the chosen engine(s)\n", *only)
		os.Exit(2)
	}
	if *verbose {
		fmt.Println()
		fmt.Print(rep.MechTable())
	}

	if *inject {
		// Detection check: every scenario carried a deliberate violation,
		// so every execution must have deviated from its oracle.
		if rep.AllPassed() {
			fmt.Println("\nFAIL: injected invariant violations went undetected")
			os.Exit(1)
		}
		fmt.Printf("\nOK: all injected violations caught (%d failing executions, as intended)\n", len(failures))
		if len(failures) > 0 {
			fmt.Printf("example: %s\n", failures[0].String())
		}
		return
	}
	if !rep.AllPassed() {
		fmt.Printf("\nFAIL: %d execution(s) deviated from the sequential oracle\n", len(failures))
		os.Exit(1)
	}
	fmt.Println("\nOK: every engine x mechanism pair matched the sequential oracle")
}
