package core

import (
	"testing"
	"unsafe"
)

// These tests are the one check of paddedShard's layout: they pin it at
// run time with unsafe, so a field added without growing the pad, or a
// platform whose real layout diverges from the gc sizing model, fails
// here.
const cacheLine = 64

func TestPaddedShardLayout(t *testing.T) {
	if sz := unsafe.Sizeof(paddedShard{}); sz%cacheLine != 0 || sz == 0 {
		t.Errorf("paddedShard is %d bytes; want a non-zero multiple of %d", sz, cacheLine)
	}
	// The embedded payload must sit at the front: the pad is a suffix, so
	// element i's hot fields and element i+1's never share a line.
	if off := unsafe.Offsetof(paddedShard{}.waiterShard); off != 0 {
		t.Errorf("paddedShard.waiterShard at offset %d; want 0", off)
	}
}

func TestAdjacentShardsOnDistinctLines(t *testing.T) {
	shards := make([]paddedShard, 2)
	a := uintptr(unsafe.Pointer(&shards[0].mu))
	b := uintptr(unsafe.Pointer(&shards[1].mu))
	if a/cacheLine == b/cacheLine {
		t.Errorf("adjacent shard locks share cache line %#x", a/cacheLine)
	}
}
