package main

import "tmsync/internal/mono"

// bench.timer_ns: what one timed op pays for being timed (a Now/Elapsed
// pair) — the floor under every latency this benchmark reports.
func probeTimer(pc *probeCtx) {
	pc.out["bench.timer_ns"] = pc.perOp(256, func() {
		t := mono.Now()
		sinkDur += t.Elapsed()
	})
}
