package main

import (
	"tmsync"
)

// placer hands out transactional words whose orec stripe is chosen, so the
// number of waiters a commit's wake scan meets is fixed by the workload and
// not by where the Go heap happened to put the data. Every word it returns
// is alone on its cache line, covered by an orec no other placed word
// shares (no false conflicts), and word i of a request lies on stripe
// i mod NumStripes.
type placer struct {
	sys   *tmsync.System
	used  map[uint32]struct{}
	chunk []uint64
	next  int
}

// lineWords is one cache line in 8-byte words. Chunks are large
// allocations, which Go aligns to the page, so every lineWords-th word of a
// chunk starts a line.
const (
	lineWords  = 8
	chunkLines = 4096
)

func newPlacer(sys *tmsync.System) *placer {
	return &placer{sys: sys, used: make(map[uint32]struct{})}
}

func (p *placer) words(n int) []*uint64 {
	stripes := p.sys.Table.NumStripes()
	out := make([]*uint64, n)
	// byStripe[s] lists the request slots still waiting for a word on s.
	byStripe := make([][]int, stripes)
	for i := n - 1; i >= 0; i-- {
		byStripe[i%stripes] = append(byStripe[i%stripes], i)
	}
	for left := n; left > 0; {
		if p.next == len(p.chunk) {
			p.chunk, p.next = make([]uint64, chunkLines*lineWords), 0
		}
		addr := &p.chunk[p.next]
		p.next += lineWords
		idx := p.sys.Table.IndexOf(addr)
		s := p.sys.Table.StripeOf(idx)
		if _, taken := p.used[idx]; taken || len(byStripe[s]) == 0 {
			continue
		}
		p.used[idx] = struct{}{}
		last := len(byStripe[s]) - 1
		out[byStripe[s][last]] = addr
		byStripe[s] = byStripe[s][:last]
		left--
	}
	return out
}
