package main

import "tmsync/internal/locktable"

func probeLocktable(pc *probeCtx) {
	const n = 1024
	t := locktable.New(locktable.DefaultSize)
	words := make([]uint64, n)
	idx := make([]uint32, n)
	for i := range words {
		idx[i] = t.IndexOf(&words[i])
	}
	i := 0
	pc.out["locktable.indexof_ns"] = pc.perOp(256, func() {
		sinkU64 += uint64(t.IndexOf(&words[i%n]))
		i++
	})
	pc.out["locktable.get_ns"] = pc.perOp(256, func() {
		sinkU64 += t.Get(idx[i%n])
		i++
	})
	// Every orec of a fresh table is the zero word, so CAS(0→0) succeeds
	// and leaves the table as it was.
	pc.out["locktable.cas_ns"] = pc.perOp(256, func() {
		if t.CAS(idx[i%n], 0, 0) {
			sinkU64++
		}
		i++
	})
	var buf []uint32
	pc.out["locktable.stripesof16_ns"] = pc.perOp(256, func() {
		lo := i % (n - 16)
		buf = t.StripesOf(idx[lo:lo+16], buf)
		i++
	})
}
