package locktable

import (
	"testing"
	"unsafe"
)

// The one check of chunk's layout, pinned at run time: a chunk header
// must fill whole cache lines so adjacent chunks in the table's chunk
// array never share one, and the orecs slice header must lead the struct
// so the pad stays a pure suffix.
func TestChunkLayout(t *testing.T) {
	if sz := unsafe.Sizeof(chunk{}); sz%cacheLine != 0 || sz == 0 {
		t.Errorf("chunk is %d bytes; want a non-zero multiple of %d", sz, cacheLine)
	}
	if off := unsafe.Offsetof(chunk{}.orecs); off != 0 {
		t.Errorf("chunk.orecs at offset %d; want 0", off)
	}
	chunks := make([]chunk, 2)
	a := uintptr(unsafe.Pointer(&chunks[0]))
	b := uintptr(unsafe.Pointer(&chunks[1]))
	if a/cacheLine == b/cacheLine {
		t.Errorf("adjacent chunk headers share cache line %#x", a/cacheLine)
	}
}
