// Fixture for the atomicfield analyzer: a field accessed via sync/atomic
// anywhere must be accessed atomically everywhere. Copies of values that
// contain sync/atomic state are go vet's copylocks check, not this one's.
package atomicfield

import "sync/atomic"

type counter struct {
	hits  uint64
	other uint64
}

func bump(c *counter) uint64 {
	atomic.AddUint64(&c.hits, 1)
	return atomic.LoadUint64(&c.hits)
}

func mixed(c *counter) uint64 {
	c.other = 1   // fine: other is never accessed atomically
	return c.hits // want `mixed atomic/non-atomic access`
}

func addrEscape(c *counter) *uint64 {
	return &c.hits // fine: taking the address reads nothing
}

type holder struct {
	v atomic.Uint64
}

func byPointer(h *holder) uint64 {
	return h.v.Load() // fine: methods on atomic types are atomic
}

func initialization() *holder {
	return &holder{} // fine: composite literals are initialization
}

func rangeIndex(hs []holder) {
	for i := range hs { // fine: index ranging
		hs[i].v.Store(0)
	}
}
