// Command boundedbuffer regenerates the bounded-buffer microbenchmark
// figures of the evaluation (Figure 2.3 eager STM, Figure 2.4 lazy STM,
// Figure 2.5 HTM): a grid of producer/consumer configurations × buffer
// sizes, with one timing column per condition-synchronization mechanism.
//
// Usage:
//
//	go run ./cmd/boundedbuffer -engine eager [-ops 1048576] [-trials 5] [-quick]
//
// The paper's full experiment uses 2^20 elements and 5 trials; -quick
// shrinks both for a fast sanity pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"tmsync"
	"tmsync/internal/buffer"
	"tmsync/internal/mech"
	"tmsync/internal/stats"
)

func main() {
	engine := flag.String("engine", "eager", "TM engine: eager | lazy | htm | hybrid")
	ops := flag.Int("ops", 1<<20, "elements produced (and consumed) per trial")
	trials := flag.Int("trials", 5, "trials per configuration (values are averaged)")
	quick := flag.Bool("quick", false, "small run: 2^14 ops, 2 trials, reduced grid")
	flag.Parse()

	if !slices.Contains(tmsync.EngineKinds, tmsync.EngineKind(*engine)) {
		fmt.Fprintf(os.Stderr, "boundedbuffer: unknown engine %q\n", *engine)
		os.Exit(2)
	}
	threadCounts := []int{1, 2, 4, 8}
	sizes := []int{4, 16, 128}
	if *quick {
		// -quick shrinks whatever the user did not set explicitly, so
		// "-quick -ops 2048" means a quick grid at 2048 ops.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["ops"] {
			*ops = 1 << 14
		}
		if !set["trials"] {
			*trials = 2
		}
		threadCounts = []int{1, 2}
	}
	for _, n := range threadCounts {
		if *ops%n != 0 {
			fmt.Fprintf(os.Stderr, "boundedbuffer: -ops %d not divisible by %d threads\n", *ops, n)
			os.Exit(1)
		}
	}
	figure, ok := map[string]string{"eager": "2.3", "lazy": "2.4", "htm": "2.5"}[*engine]
	if !ok {
		figure = "ext (HyTM extension, no paper counterpart)"
	}
	fmt.Printf("# Figure %s: bounded buffer performance with %s\n", figure, *engine)
	fmt.Printf("# %d elements produced+consumed per trial, buffer half-filled, %d trials\n", *ops, *trials)
	fmt.Printf("# values: seconds (mean±stddev)\n\n")

	mechs := append([]mech.Mechanism{mech.Pthreads}, mech.ForEngine(*engine)...)
	for _, p := range threadCounts {
		for _, c := range threadCounts {
			fmt.Printf("## p%d-c%d\n", p, c)
			fmt.Printf("%-8s", "bufsize")
			for _, m := range mechs {
				fmt.Printf(" %16s", m)
			}
			fmt.Println()
			for _, size := range sizes {
				fmt.Printf("%-8d", size)
				for _, m := range mechs {
					ts := make([]float64, *trials)
					for i := range ts {
						ts[i] = trial(*engine, m, p, c, size, *ops)
					}
					fmt.Printf(" %16s", stats.Summarize(ts))
				}
				fmt.Println()
			}
			fmt.Println()
		}
	}
}

// trial times one run of the cell: p producers and c consumers move ops
// elements through a half-filled buffer of the given size. It returns the
// wall-clock seconds the run took.
func trial(engine string, m mech.Mechanism, p, c, size, ops int) float64 {
	prefill := make([]uint64, size/2)
	for i := range prefill {
		prefill[i] = uint64(i) + 1
	}
	// producer and consumer build one worker's operation on the buffer
	// under test; a TM worker needs a thread of its own.
	var producer func() func(uint64)
	var consumer func() func()
	if m == mech.Pthreads {
		b := buffer.NewLock(size)
		b.Prefill(prefill)
		producer = func() func(uint64) { return b.Put }
		consumer = func() func() { return func() { b.Get() } }
	} else {
		sys := tmsync.New(tmsync.EngineKind(engine), tmsync.Config{})
		b := buffer.NewTM(size)
		b.Prefill(prefill)
		producer = func() func(uint64) {
			thr := sys.NewThread()
			return func(v uint64) { b.PutMech(thr, m, v) }
		}
		consumer = func() func() {
			thr := sys.NewThread()
			return func() { b.GetMech(thr, m) }
		}
	}
	perProd, perCons := ops/p, ops/c
	var wg sync.WaitGroup
	start := time.Now()
	for id := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			put := producer()
			for i := range perProd {
				put(uint64(id*perProd+i) + 1)
			}
		}()
	}
	for range c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get := consumer()
			for range perCons {
				get()
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}
