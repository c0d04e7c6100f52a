package main

import (
	"tmsync"
	"tmsync/internal/clock"
	"tmsync/internal/parsecsim"
)

// metricSpec declares one metric. BENCHMARK.json at the repository root
// carries the same declarations for the driver; a test keeps the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only (never 0 there): the share by which it may worsen
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndSpecs are what a user of the library sees, each with the bound
// past which a change counts as a regression. fail_ratio is not among
// them because the driver's contract wants metrics that are never 0: it is
// carried by the result line's `failed` / `attempted`, where any failure
// at all fails the run.
func endToEndSpecs() []metricSpec {
	var out []metricSpec
	for _, e := range tmsync.EngineKinds {
		out = append(out, metricSpec{"ops_per_s." + string(e), "ops/s", higher, 0.20})
	}
	for _, e := range tmsync.EngineKinds {
		out = append(out, metricSpec{"op_p90_us." + string(e), "us", lower, 0.25})
	}
	return append(out,
		metricSpec{"allocs_per_op", "allocs", lower, 0.10},
		metricSpec{"mem_live_mb", "MB", lower, 0.05},
		metricSpec{"setup_s", "s", lower, 0.25},
	)
}

// perLayerSpecs lists every per-layer metric a traced run prints: first
// the ones read off the workload's own traced segments (spans + Stats
// deltas), then the workload-independent probes.
func perLayerSpecs() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{Name: name, Unit: unit, Better: better}) }
	perEngine := func(prefix, unit, better string) {
		for _, e := range tmsync.EngineKinds {
			add(prefix+"."+string(e), unit, better)
		}
	}
	perEngine("tm.abort_ratio", "ratio", lower)
	perEngine("tm.attempts_per_op", "count", lower)
	perEngine("tm.allocs_per_op", "allocs", lower)
	perEngine("tm.op_p50_us", "us", lower)
	perEngine("tm.op_p99_us", "us", lower)
	perEngine("core.deschedules_per_op", "count", lower)
	perEngine("core.wake_checks_per_commit", "count", lower)
	perEngine("core.futile_wakeup_ratio", "ratio", lower)
	perEngine("core.sleep_to_signal_p50_us", "us", lower)
	perEngine("clock.word_ops_per_commit", "count", lower)
	add("htm.serializations_per_op.htm", "count", lower)
	add("htm.serializations_per_op.hybrid", "count", lower)
	add("bench.trace_overhead_ratio", "ratio", lower)
	add("bench.baseline_ops_per_s", "ops/s", higher)
	add("bench.mem_sys_mb", "MB", lower)

	for _, m := range handoffMechs {
		perEngine("core.rt_p50_us."+string(m), "us", lower)
	}
	for _, n := range []string{"indexof", "get", "cas", "stripesof16"} {
		add("locktable."+n+"_ns", "ns", lower)
	}
	for _, prefix := range []string{"clock.commit_ns.", "clock.commit_pN_ns."} {
		for _, m := range clock.Modes() {
			add(prefix+string(m), "ns", lower)
		}
	}
	add("sem.roundtrip_ns", "ns", lower)
	add("sem.batch8_signal_ns", "ns", lower)
	perEngine("tm.atomic_empty_ns", "ns", lower)
	perEngine("tm.atomic_restart_ns", "ns", lower)
	perEngine("tm.private_p1_ns", "ns", lower)
	perEngine("tm.private_scaling", "ratio", higher)
	for _, e := range tmsync.EngineKinds {
		for _, n := range []string{"read_ns", "write_ns", "raw_hit_ns", "commit_ns"} {
			add(string(e)+"."+n, "ns", lower)
		}
	}
	add("core.commit_w0_ns", "ns", lower)
	add("core.commit_w256_ns", "ns", lower)
	add("condvar.rt_p50_us", "us", lower)
	perEngine("buffer.putget_ns", "ns", lower)
	add("buffer.lock_putget_ns", "ns", lower)
	add("txds.queue_puttake_ns", "ns", lower)
	add("txds.map_get_ns", "ns", lower)
	add("txds.map_put_ns", "ns", lower)
	for i := range parsecsim.Benchmarks {
		add("parsecsim."+parsecsim.Benchmarks[i].Name+"_ms", "ms", lower)
	}
	add("parsecsim.pthreads_cycle_ms", "ms", lower)
	add("bench.timer_ns", "ns", lower)
	return out
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(p *pass) map[string]float64 {
	out := make(map[string]float64)
	var allocs float64
	for _, e := range tmsync.EngineKinds {
		c := p.cells[e]
		out["ops_per_s."+string(e)] = iqm(c.rates)
		out["op_p90_us."+string(e)] = iqm(c.p90s)
		allocs += iqm(c.allocs)
	}
	// The mean of the engines' own allocs/op, not total mallocs over total
	// ops: that ratio would move whenever one engine's share of the
	// throughput did, with no allocation changing.
	out["allocs_per_op"] = allocs / float64(len(tmsync.EngineKinds))
	out["mem_live_mb"] = p.memLiveMB
	out["setup_s"] = p.setupS
	return out
}

// workloadLayers computes the per-layer metrics that come from the
// workload's own segments in a traced run: plain and traced are the two
// passes, tr the tracer of the second.
func workloadLayers(plain, traced *pass, tr *tracer, baselineOpsPerS float64) map[string]float64 {
	out := make(map[string]float64)
	var overhead float64
	for _, e := range tmsync.EngineKinds {
		c, s := traced.cells[e], string(e)
		attempts := c.stats["commits"] + c.stats["ro_commits"] + c.stats["aborts"]
		out["tm.abort_ratio."+s] = c.per("aborts", attempts)
		out["tm.attempts_per_op."+s] = float64(attempts) / float64(max(c.ops, 1))
		out["tm.op_p50_us."+s] = c.hist.quantileUS(0.5)
		out["tm.op_p99_us."+s] = c.hist.quantileUS(0.99)
		out["core.deschedules_per_op."+s] = c.per("deschedules", c.ops)
		out["core.wake_checks_per_commit."+s] = c.per("wake_checks", c.stats["commits"])
		out["core.futile_wakeup_ratio."+s] = c.per("futile_wakeups", c.stats["wakeups"])
		out["core.sleep_to_signal_p50_us."+s] = tr.wake[e].snapshot().quantileUS(0.5)
		out["clock.word_ops_per_commit."+s] = float64(c.stats["clock_advances"]+c.stats["clock_cas_retries"]) /
			float64(max(c.stats["commits"], 1))
		if e == tmsync.HTM || e == tmsync.Hybrid {
			out["htm.serializations_per_op."+s] = c.per("serializations", c.ops)
		}
		// Allocations and the overhead ratio come from the untraced pass:
		// the traced one is the thing being charged.
		pc := plain.cells[e]
		out["tm.allocs_per_op."+s] = float64(pc.mallocs) / float64(max(pc.ops, 1))
		if pc.opsPerS() > 0 {
			overhead += 1 - c.opsPerS()/pc.opsPerS()
		}
	}
	out["bench.trace_overhead_ratio"] = overhead / float64(len(tmsync.EngineKinds))
	out["bench.baseline_ops_per_s"] = baselineOpsPerS
	out["bench.mem_sys_mb"] = plain.memSysMB
	return out
}
