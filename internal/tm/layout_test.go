package tm

import (
	"testing"
	"unsafe"
)

// TestThreadLayout pins the cache-line plan in Thread's doc comment: the
// struct (plus the allocator's 8-byte header) stays in the 704-byte size
// class, the fields other threads poll start a line, and the block the
// owner writes on every commit — the hot stat shard, on exactly one line,
// and the wake-scan scratch — shares no adjacent-line pair with them
// whichever half of a pair the Thread's slot starts in.
func TestThreadLayout(t *testing.T) {
	const line, pair, header, class = 64, 128, 8, 704
	var th Thread
	if sz := unsafe.Sizeof(th); sz+header > class {
		t.Fatalf("Thread is %d bytes: with the %d-byte malloc header it leaves the %d-byte size class for the 768 one", sz, header, class)
	}
	sys := NewSystem(Config{}, func(*System) Engine { return nil })
	for i := 0; i < 32; i++ {
		if p := uintptr(unsafe.Pointer(sys.NewThread())); p%line != header {
			t.Fatalf("Thread allocated at %#x, %d into its line, not %d: the line arithmetic below does not describe it", p, p%line, header)
		}
	}

	type span struct{ lo, hi uintptr } // [lo, hi), as offsets into the slot
	polled := span{header + unsafe.Offsetof(th.ActiveStart), header + unsafe.Offsetof(th.Sig) + unsafe.Sizeof(th.Sig)}
	quiet := span{polled.hi, header + unsafe.Offsetof(th.Stat)}
	owner := span{quiet.hi, header + unsafe.Sizeof(th)}
	in := func(block string, s span, fields map[string]uintptr) {
		t.Helper()
		for name, off := range fields {
			if off += header; off < s.lo || off >= s.hi {
				t.Errorf("%s at slot offset %d lies outside the %s block [%d,%d)", name, off, block, s.lo, s.hi)
			}
		}
	}
	in("polled", polled, map[string]uintptr{"HWActive": unsafe.Offsetof(th.HWActive), "Doomed": unsafe.Offsetof(th.Doomed)})
	in("quiet", quiet, map[string]uintptr{
		"ID": unsafe.Offsetof(th.ID), "Sys": unsafe.Offsetof(th.Sys), "Sem": unsafe.Offsetof(th.Sem), "SlowStat": unsafe.Offsetof(th.SlowStat),
	})
	in("owner", owner, map[string]uintptr{
		"postStripes": unsafe.Offsetof(th.postStripes), "inPostCommit": unsafe.Offsetof(th.inPostCommit), "Stat": unsafe.Offsetof(th.Stat),
	})
	in("descriptor", span{header, polled.lo}, map[string]uintptr{"Tx": unsafe.Offsetof(th.Tx), "backoff": unsafe.Offsetof(th.backoff)})

	if polled.lo%line != 0 {
		t.Errorf("polled block starts %d bytes into a line", polled.lo%line)
	}
	if owner.lo%line != 0 || unsafe.Sizeof(th.Stat) != line {
		t.Errorf("stat shard is %d bytes, %d into a line: want one whole line", unsafe.Sizeof(th.Stat), owner.lo%line)
	}
	for _, slot := range []uintptr{0, line} { // the slot's offset within a line pair
		if pHi, oLo := (slot+polled.hi-1)/pair, (slot+owner.lo)/pair; oLo <= pHi {
			t.Errorf("slot at %d mod %d: owner block [%d,%d) reaches into line pair %d of the polled block [%d,%d)",
				slot, pair, owner.lo, owner.hi, pHi, polled.lo, polled.hi)
		}
	}
}
