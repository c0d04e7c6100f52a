package harness

import (
	"fmt"
	"sync"
	"time"

	"tmsync/internal/mech"
	"tmsync/internal/parsecsim"
	"tmsync/internal/tm"
)

// ParsecScenarios registers the eight PARSEC concurrency skeletons of
// internal/parsecsim as differential scenarios: each one's observable
// state is its workload checksum, which must match the sequential oracle
// (the Pthreads baseline on one thread) under every engine × mechanism.
//
// threads ≤ 0 selects two workers, which every benchmark accepts; other
// counts are lowered to the benchmark's nearest valid count.
func ParsecScenarios(threads, scale int) []*Scenario {
	if threads <= 0 {
		threads = 2
	}
	if scale <= 0 {
		scale = 1
	}
	out := make([]*Scenario, 0, len(parsecsim.Benchmarks))
	for i := range parsecsim.Benchmarks {
		b := &parsecsim.Benchmarks[i]
		n := threads
		for n > 1 && !b.ValidThreads(n) {
			n--
		}
		var once sync.Once
		var ref Observation
		out = append(out, &Scenario{
			Name:    "parsec/" + b.Name,
			Threads: n,
			Mechs:   mech.ForEngine,
			Oracle: func() Observation {
				once.Do(func() {
					ref = Observation{"checksum": fmt.Sprintf("%x", b.Reference(scale))}
				})
				return ref
			},
			Run: func(sys *tm.System, m mech.Mechanism) (Observation, error) {
				// Bound the run like runSpec does: a lost-wakeup regression
				// must surface as a wedge error, not hang the whole check.
				type outcome struct{ sum uint64 }
				ch := make(chan outcome, 1)
				go func() {
					k := &parsecsim.Kit{Mech: m, Sys: sys}
					ch <- outcome{sum: b.Run(k, n, scale)}
				}()
				select {
				case o := <-ch:
					return Observation{"checksum": fmt.Sprintf("%x", o.sum)}, nil
				case <-time.After(WedgeTimeout):
					return nil, fmt.Errorf("wedged: %s still running after %v (lost wakeup?)", b.Name, WedgeTimeout)
				}
			},
		})
	}
	return out
}
