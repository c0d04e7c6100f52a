package main

import "tmsync/internal/clock"

// clock.commit_ns.M is one Now+Commit on an otherwise idle Source;
// clock.commit_pN_ns.M the same with nproc goroutines on one Source, which
// is where a shared clock word shows.
func probeClock(pc *probeCtx) {
	for _, m := range clock.Modes() {
		src := clock.New(m, nil, nil)
		one := func() {
			end, _ := src.Commit(src.Now(), 0)
			sinkU64 += end
		}
		pc.out["clock.commit_ns."+string(m)] = pc.perOp(256, one)

		shared := clock.New(m, nil, nil)
		pc.out["clock.commit_pN_ns."+string(m)] = pc.perOpParallel(func(int) func() {
			var local uint64
			return func() {
				end, _ := shared.Commit(shared.Now(), 0)
				local += end
			}
		})
	}
}
