package main

import (
	"tmsync"
	"tmsync/internal/mech"
)

// The core layer: what parked waiters cost a commit that wakes none of
// them (one lazy writer, 0 against 256 sleepers, four to a stripe), and the
// request→response round trip through each Deschedule mechanism alone.
func probeCore(pc *probeCtx) {
	one := pc.cfg
	one.nproc = 1
	pc.out["core.commit_w0_ns"] = nsPerOp(pc.drive(newRingWorkload(one, 0).build(tmsync.Lazy, nil), untimed))
	pc.out["core.commit_w256_ns"] = nsPerOp(pc.drive(newRingWorkload(one, ringSleepers).build(tmsync.Lazy, nil), untimed))

	for _, e := range tmsync.EngineKinds {
		for _, m := range handoffMechs {
			c := pc.drive(newHandoffInstance(e, nil, 1, []mech.Mechanism{m}), 1)
			pc.out["core.rt_p50_us."+string(m)+"."+string(e)] = c.hist.quantileUS(0.5)
		}
	}
}
