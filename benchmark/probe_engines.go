package main

import "tmsync"

// The engine layer, per engine: what one more read, one more write and one
// read-after-write hit add to a transaction, and what committing a
// transaction that wrote costs before its first word (E.commit_ns: lock
// set, clock stamp, quiescence, the post-commit hook). Bodies touch words
// on distinct orecs, one per stripe, like the private ring. Writes are
// costed on an 8-word body because a write's price grows with the write
// set (64-word sets overstate the 2-word sets of `private` by a third):
//
//	E.read_ns    = (64 reads − empty) / 64
//	E.write_ns   = (8 writes − 1 write) / 7
//	E.raw_hit_ns = (1 write + 64 reads of it − 1 write) / 64
//	E.commit_ns  = 1 write − empty − E.write_ns
func probeEngines(pc *probeCtx) {
	for _, e := range tmsync.EngineKinds {
		sys := tmsync.New(e, tmsync.Config{})
		thr := sys.NewThread()
		ws := newPlacer(sys).words(64)
		var sink, v uint64
		cost := func(body func(tx *tmsync.Tx)) float64 {
			return pc.perOp(64, func() { v++; thr.Atomic(body) })
		}
		empty := cost(func(*tmsync.Tx) {})
		read64 := cost(func(tx *tmsync.Tx) {
			for _, w := range ws {
				sink += tx.Read(w)
			}
		})
		write8 := cost(func(tx *tmsync.Tx) {
			for _, w := range ws[:8] {
				tx.Write(w, v)
			}
		})
		write1 := cost(func(tx *tmsync.Tx) { tx.Write(ws[0], v) })
		hit64 := cost(func(tx *tmsync.Tx) {
			tx.Write(ws[0], v)
			for range ws {
				sink += tx.Read(ws[0])
			}
		})
		thr.Detach()
		sinkU64 += sink
		write := (write8 - write1) / 7
		pc.out[string(e)+".read_ns"] = (read64 - empty) / 64
		pc.out[string(e)+".write_ns"] = write
		pc.out[string(e)+".raw_hit_ns"] = (hit64 - write1) / 64
		pc.out[string(e)+".commit_ns"] = write1 - empty - write
	}
}
