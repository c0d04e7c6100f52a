package main

import (
	"math/bits"
	"sort"
	"time"
)

// histSub is the number of linear sub-buckets per power of two: bucket
// width is 1/64 of its lower bound, so a quantile interpolated inside a
// bucket is off by well under 1 % — far inside every latency bound.
const (
	histSub     = 64
	histSubBits = 6
	histBuckets = (64 - histSubBits + 1) * histSub
)

// histogram is a fixed-size log-linear latency histogram over nanoseconds.
// Recording never allocates, so sampling latency inside a timed segment
// cannot disturb allocs_per_op or mem_sys_mb, which a growing sample slice
// would.
type histogram struct {
	counts [histBuckets]uint32
	n      uint64
}

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // ≥ histSubBits
	sub := (ns >> (e - histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + int(sub)
}

// histBounds returns the lower bound and width, in ns, of bucket idx.
func histBounds(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	e := idx/histSub + histSubBits - 1
	sub := uint64(idx % histSub)
	return float64((histSub + sub) << (e - histSubBits)), float64(uint64(1) << (e - histSubBits))
}

func (h *histogram) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileNS returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it; 0 when the histogram is empty.
func (h *histogram) quantileNS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, width := histBounds(i)
			return lo + width*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

func (h *histogram) quantileUS(q float64) float64 { return h.quantileNS(q) / 1e3 }

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqm is the interquartile mean: the mean of the middle half of vs (all of
// it when there are fewer than four values). Unlike the mean it ignores a
// quarter of outliers on either side; unlike the median it still averages
// over the modes a bistable workload alternates between.
func iqm(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance rule for this benchmark's steadiness is stated in.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
