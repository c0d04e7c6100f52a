package main

import "tmsync"

// The tm layer: the Atomic driver with nothing in it (defer + recover),
// the price of one abort (panic + rollback + re-execution), and the
// private ring op at one goroutine and at nproc.
func probeTM(pc *probeCtx) {
	for _, e := range tmsync.EngineKinds {
		sys := tmsync.New(e, tmsync.Config{})
		thr := sys.NewThread()
		empty := pc.perOp(256, func() { thr.Atomic(func(*tmsync.Tx) {}) })
		n := 0
		once := func(tx *tmsync.Tx) {
			n++
			if n%2 == 1 {
				tx.Restart()
			}
		}
		restart := pc.perOp(256, func() { thr.Atomic(once) })
		thr.Detach()
		pc.out["tm.atomic_empty_ns."+string(e)] = empty
		pc.out["tm.atomic_restart_ns."+string(e)] = restart - empty

		one, all := pc.cfg, pc.cfg
		one.nproc = 1
		p1 := pc.drive(newRingWorkload(one, 0).build(e, nil), untimed)
		pN := pc.drive(newRingWorkload(all, 0).build(e, nil), untimed)
		pc.out["tm.private_p1_ns."+string(e)] = nsPerOp(p1)
		if p1.opsPerS() > 0 {
			pc.out["tm.private_scaling."+string(e)] = pN.opsPerS() / p1.opsPerS()
		}
	}
}
