package core

import (
	"testing"
	"unsafe"
)

// The //tm:padded annotation on paddedShard is verified statically by
// tmlint's padcheck analyzer using types.Sizes; this test pins the same
// facts at runtime with unsafe, so the invariant
// holds even in builds that never run the linter (and so a platform whose
// real layout diverges from the gc sizing model fails loudly here).
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
