// Command parsecbench regenerates the PARSEC-skeleton figures of the
// evaluation (Figure 2.6 eager STM, Figure 2.7 lazy STM, Figure 2.8 HTM):
// for each of the eight condition-variable PARSEC benchmarks, execution
// time versus thread count (1–8) with one series per mechanism.
//
// Usage:
//
//	go run ./cmd/parsecbench -engine lazy [-scale 4] [-trials 5] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"tmsync"
	"tmsync/internal/mech"
	"tmsync/internal/parsecsim"
	"tmsync/internal/stats"
)

func main() {
	engine := flag.String("engine", "eager", "TM engine: eager | lazy | htm | hybrid")
	scale := flag.Int("scale", 4, "workload scale factor")
	trials := flag.Int("trials", 5, "trials per configuration")
	benchName := flag.String("bench", "", "run only this benchmark (default: all eight)")
	quick := flag.Bool("quick", false, "small run: scale 1, 2 trials, threads {1,2,4}")
	flag.Parse()

	if !slices.Contains(tmsync.EngineKinds, tmsync.EngineKind(*engine)) {
		fmt.Fprintf(os.Stderr, "parsecbench: unknown engine %q\n", *engine)
		os.Exit(2)
	}
	threads := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if *quick {
		// -quick shrinks whatever the user did not set explicitly, so
		// "-quick -trials 1" means a quick grid with one trial.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["scale"] {
			*scale = 1
		}
		if !set["trials"] {
			*trials = 2
		}
		threads = []int{1, 2, 4}
	}
	figure, ok := map[string]string{"eager": "2.6", "lazy": "2.7", "htm": "2.8"}[*engine]
	if !ok {
		figure = "ext (HyTM extension, no paper counterpart)"
	}
	fmt.Printf("# Figure %s: PARSEC performance with %s\n", figure, *engine)
	fmt.Printf("# scale %d, %d trials; values: seconds (mean±stddev)\n\n", *scale, *trials)

	mechs := append([]mech.Mechanism{mech.Pthreads}, mech.ForEngine(*engine)...)
	for _, b := range parsecsim.Benchmarks {
		if *benchName != "" && b.Name != *benchName {
			continue
		}
		fmt.Printf("## %s\n", b.Name)
		fmt.Printf("%-8s", "threads")
		for _, m := range mechs {
			fmt.Printf(" %16s", m)
		}
		fmt.Println()
		var checksum uint64
		first := true
		for _, n := range threads {
			if !b.ValidThreads(n) {
				continue
			}
			fmt.Printf("%-8d", n)
			for _, m := range mechs {
				ts := make([]float64, *trials)
				for i := range ts {
					k := &parsecsim.Kit{Mech: m}
					if m != mech.Pthreads {
						k.Sys = tmsync.New(tmsync.EngineKind(*engine), tmsync.Config{}).System
					}
					start := time.Now()
					cs := b.Run(k, n, *scale)
					ts[i] = time.Since(start).Seconds()
					// Every trial of every mechanism must compute the
					// same result, or the timings compare different work.
					if first {
						checksum = cs
						first = false
					} else if cs != checksum {
						fmt.Fprintf(os.Stderr, "%s: checksum mismatch (%x vs %x) for %s@%d\n", b.Name, cs, checksum, m, n)
						os.Exit(1)
					}
				}
				fmt.Printf(" %16s", stats.Summarize(ts))
			}
			fmt.Println()
		}
		fmt.Printf("checksum %x (identical across all mechanisms)\n\n", checksum)
	}
}
