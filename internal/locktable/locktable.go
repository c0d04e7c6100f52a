// Package locktable implements the table of ownership records (orecs) that
// maps shared-memory words to versioned locks, as in TinySTM, TL2, and the
// software TM of Appendix A. A single 64-bit word encodes either
// {unlocked, version} or {locked, owner, version}, so that all fields of a
// Lock object can be read atomically and modified with compare-and-swap.
package locktable

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Orec field layout. Bit 0 is the locked flag. When locked, bits 1..15
// carry the owner thread id (1-based) and bits 16..63 keep the version the
// word had when it was acquired, so release-for-abort can restore it.
// When unlocked, bits 16..63 carry the version and the owner field is zero.
const (
	lockedBit    = uint64(1)
	ownerShift   = 1
	ownerBits    = 15
	ownerMask    = (uint64(1)<<ownerBits - 1) << ownerShift
	versionShift = 16
	// MaxOwner is the largest encodable owner id.
	MaxOwner = uint64(1)<<ownerBits - 1
	// MaxVersion is the largest encodable version.
	MaxVersion = uint64(1)<<(64-versionShift) - 1
)

// Orec is the decoded form of an ownership record.
type Orec struct {
	Locked  bool
	Owner   uint64 // thread id, valid only when Locked
	Version uint64 // time of last unlock (kept while locked, for abort)
}

// Encode packs an Orec into its 64-bit word form.
func Encode(o Orec) uint64 {
	w := o.Version << versionShift
	if o.Locked {
		w |= lockedBit | (o.Owner << ownerShift & ownerMask)
	}
	return w
}

// Decode unpacks a 64-bit orec word.
func Decode(w uint64) Orec {
	o := Orec{Version: w >> versionShift}
	if w&lockedBit != 0 {
		o.Locked = true
		o.Owner = (w & ownerMask) >> ownerShift
	}
	return o
}

// Locked reports whether the encoded word is locked.
func Locked(w uint64) bool { return w&lockedBit != 0 }

// Owner returns the owner id of an encoded, locked word.
func Owner(w uint64) uint64 { return (w & ownerMask) >> ownerShift }

// Version returns the version of an encoded word.
func Version(w uint64) uint64 { return w >> versionShift }

// LockedBy builds the word for a lock held by owner with the given
// pre-acquisition version.
func LockedBy(owner, version uint64) uint64 {
	return version<<versionShift | owner<<ownerShift&ownerMask | lockedBit
}

// UnlockedAt builds the word for an unlocked orec with the given version.
func UnlockedAt(version uint64) uint64 { return version << versionShift }

// cacheLine is the assumed coherence granularity. Storage chunks are
// padded to it so that metadata of adjacent chunks never shares a line.
const cacheLine = 64

// chunk is the orec storage of one stripe: its own orec array, separately
// allocated so that hot orecs of different stripes live on different cache
// lines, with the header padded out to a line boundary.
//
//tm:padded
type chunk struct {
	orecs []atomic.Uint64
	_     [(cacheLine - unsafe.Sizeof([]atomic.Uint64(nil))%cacheLine) % cacheLine]byte
}

// Table is a fixed-size, power-of-two array of orecs, split into a
// power-of-two number of stripes, each a cache-line-padded storage chunk.
// Distinct addresses may hash to the same orec (false conflicts), exactly
// as in word-based STM. Slot indexes are global (0..Len-1); both they and
// the stripe geometry are fixed for the table's lifetime.
type Table struct {
	mask   uintptr
	size   int
	shift  uint32 // slot >> shift = stripe id
	inMask uint32 // slot & inMask = index within the stripe's chunk
	n      int    // stripe count
	chunks []chunk
}

// DefaultSize is the default number of orecs (1<<16, 512 KiB).
const DefaultSize = 1 << 16

// DefaultStripes is the default stripe count. 64 stripes keep the
// per-commit wakeup index small while still spreading independent
// structures across distinct stripes with high probability.
const DefaultStripes = 64

// New returns a table with size orecs and the default stripe count
// (clamped to size for tiny tables); size must be a power of two.
func New(size int) *Table {
	stripes := DefaultStripes
	if size < stripes {
		stripes = size
	}
	return NewSharded(size, stripes)
}

// NewSharded returns a table with size orecs split into the given number
// of stripes. Both must be powers of two, with 1 <= stripes <= size.
func NewSharded(size, stripes int) *Table {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("locktable: size %d is not a positive power of two", size))
	}
	if stripes <= 0 || stripes&(stripes-1) != 0 {
		panic(fmt.Sprintf("locktable: stripe count %d is not a positive power of two", stripes))
	}
	if stripes > size {
		panic(fmt.Sprintf("locktable: stripe count %d exceeds table size %d", stripes, size))
	}
	per := size / stripes
	t := &Table{
		mask:   uintptr(size - 1),
		size:   size,
		shift:  uint32(bits.TrailingZeros(uint(per))),
		inMask: uint32(per - 1),
		n:      stripes,
		chunks: make([]chunk, stripes),
	}
	for i := range t.chunks {
		t.chunks[i].orecs = make([]atomic.Uint64, per)
	}
	return t
}

// Len returns the number of orecs in the table.
func (t *Table) Len() int { return t.size }

// NumStripes returns the number of stripes.
func (t *Table) NumStripes() int { return t.n }

// StripeLen returns the number of orec slots per stripe.
func (t *Table) StripeLen() int { return t.size / t.n }

// StripeOf returns the stripe owning slot idx. Every slot belongs to
// exactly one stripe, and the same address always maps to the same stripe
// (IndexOf is a pure function of the address).
func (t *Table) StripeOf(idx uint32) uint32 { return idx >> t.shift }

// IndexOf returns the table slot covering addr. Word-aligned addresses are
// mixed with a Fibonacci multiplier so that adjacent words land on
// different orecs (and, with high probability, on different stripes).
func (t *Table) IndexOf(addr *uint64) uint32 {
	p := uintptr(unsafe.Pointer(addr)) >> 3
	p *= 0x9e3779b97f4a7c15 & ^uintptr(0)
	return uint32((p >> 16) & t.mask)
}

func (t *Table) slot(idx uint32) *atomic.Uint64 {
	return &t.chunks[idx>>t.shift].orecs[idx&t.inMask]
}

// Get returns the orec word for slot idx.
func (t *Table) Get(idx uint32) uint64 { return t.slot(idx).Load() }

// CAS attempts to transition slot idx from old to new.
func (t *Table) CAS(idx uint32, old, new uint64) bool {
	return t.slot(idx).CompareAndSwap(old, new)
}

// Set unconditionally stores word w into slot idx. Only the lock owner may
// do this (release paths).
func (t *Table) Set(idx uint32, w uint64) { t.slot(idx).Store(w) }

// ForAddr returns the orec word covering addr.
func (t *Table) ForAddr(addr *uint64) uint64 { return t.Get(t.IndexOf(addr)) }

// StripesOf appends to buf[:0] the deduplicated stripes covering the given
// orec slots, in ascending order. Slot sets are small relative to the
// stripe count, so an insertion sort with linear dedup beats sorting a
// copy or building a map; buf lets callers reuse one scratch slice across
// calls.
func (t *Table) StripesOf(slots []uint32, buf []uint32) []uint32 {
	out := buf[:0]
	for _, idx := range slots {
		s := idx >> t.shift
		pos := len(out)
		for pos > 0 && out[pos-1] >= s {
			if out[pos-1] == s {
				pos = -1
				break
			}
			pos--
		}
		if pos < 0 {
			continue
		}
		out = append(out, 0)
		copy(out[pos+1:], out[pos:])
		out[pos] = s
	}
	return out
}
