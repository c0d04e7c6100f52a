package main

import (
	"tmsync"
	"tmsync/internal/mech"
)

// condvar.rt_p50_us: the handoff round trip through transaction-safe
// condition variables (lazy), the baseline the Deschedule mechanisms are
// compared with.
func probeCondvar(pc *probeCtx) {
	c := pc.drive(newHandoffInstance(tmsync.Lazy, nil, 1, []mech.Mechanism{mech.TMCondVar}), 1)
	pc.out["condvar.rt_p50_us"] = c.hist.quantileUS(0.5)
}
