package locktable

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Orec{
		{},
		{Locked: true, Owner: 1, Version: 0},
		{Locked: true, Owner: MaxOwner, Version: 12345},
		{Locked: false, Version: MaxVersion},
		{Locked: true, Owner: 7, Version: MaxVersion},
	}
	for _, c := range cases {
		got := Decode(Encode(c))
		want := c
		if !want.Locked {
			want.Owner = 0
		}
		if got != want {
			t.Errorf("Decode(Encode(%+v)) = %+v", c, got)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(locked bool, owner, version uint64) bool {
		o := Orec{Locked: locked, Owner: owner % (MaxOwner + 1), Version: version % (MaxVersion + 1)}
		d := Decode(Encode(o))
		if !o.Locked {
			o.Owner = 0
		}
		return d == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldAccessorsAgreeWithDecode(t *testing.T) {
	f := func(locked bool, owner, version uint64) bool {
		o := Orec{Locked: locked, Owner: owner % (MaxOwner + 1), Version: version % (MaxVersion + 1)}
		w := Encode(o)
		if Locked(w) != o.Locked {
			return false
		}
		if Version(w) != o.Version {
			return false
		}
		if o.Locked && Owner(w) != o.Owner {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockedByUnlockedAt(t *testing.T) {
	w := LockedBy(5, 99)
	if !Locked(w) || Owner(w) != 5 || Version(w) != 99 {
		t.Fatalf("LockedBy(5,99) decodes to %+v", Decode(w))
	}
	u := UnlockedAt(100)
	if Locked(u) || Version(u) != 100 {
		t.Fatalf("UnlockedAt(100) decodes to %+v", Decode(u))
	}
}

// TestEncodeDecodeFieldBoundaries pins the exact field boundaries: the
// largest encodable owner and version round-trip, in every combination,
// and one-past-the-boundary inputs wrap instead of corrupting neighbours.
func TestEncodeDecodeFieldBoundaries(t *testing.T) {
	cases := []Orec{
		{Locked: true, Owner: MaxOwner, Version: 0},
		{Locked: true, Owner: MaxOwner, Version: MaxVersion},
		{Locked: true, Owner: 1, Version: MaxVersion},
		{Locked: false, Version: MaxVersion},
		{Locked: true, Owner: MaxOwner - 1, Version: MaxVersion - 1},
	}
	for _, c := range cases {
		got := Decode(Encode(c))
		want := c
		if !want.Locked {
			want.Owner = 0
		}
		if got != want {
			t.Errorf("Decode(Encode(%+v)) = %+v", c, got)
		}
	}
	// An owner one past the boundary must not leak into the version or
	// locked fields (Encode masks it to the owner field's width).
	w := Encode(Orec{Locked: true, Owner: MaxOwner + 1, Version: 7})
	if Version(w) != 7 || !Locked(w) {
		t.Errorf("overflowing owner corrupted other fields: %+v", Decode(w))
	}
}

// TestEncodeIsLeftInverseOfDecode: every word built from a valid state is
// reproduced bit-for-bit by Encode∘Decode (no information besides the
// unlocked owner, which has no representation, is lost).
func TestEncodeIsLeftInverseOfDecode(t *testing.T) {
	f := func(locked bool, owner, version uint64) bool {
		var w uint64
		if locked {
			w = LockedBy(owner%(MaxOwner+1), version%(MaxVersion+1))
		} else {
			w = UnlockedAt(version % (MaxVersion + 1))
		}
		return Encode(Decode(w)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	for _, size := range []int{0, -1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", size)
				}
			}()
			New(size)
		}()
	}
}

func TestIndexOfInRangeAndStable(t *testing.T) {
	tbl := New(1 << 10)
	words := make([]uint64, 4096)
	seen := make(map[uint32]bool)
	for i := range words {
		idx := tbl.IndexOf(&words[i])
		if int(idx) >= tbl.Len() {
			t.Fatalf("index %d out of range %d", idx, tbl.Len())
		}
		if tbl.IndexOf(&words[i]) != idx {
			t.Fatal("IndexOf not stable for the same address")
		}
		seen[idx] = true
	}
	// With 4096 addresses over 1024 slots we should hit a large fraction of
	// the table; a pathological hash would collapse to a few slots.
	if len(seen) < tbl.Len()/2 {
		t.Fatalf("hash collapses: only %d/%d slots used", len(seen), tbl.Len())
	}
}

func TestAdjacentWordsSpread(t *testing.T) {
	tbl := New(1 << 12)
	var arr [64]uint64
	collisions := 0
	for i := 0; i < len(arr)-1; i++ {
		if tbl.IndexOf(&arr[i]) == tbl.IndexOf(&arr[i+1]) {
			collisions++
		}
	}
	if collisions > 4 {
		t.Fatalf("adjacent words collide too often: %d/63", collisions)
	}
}

func TestCASAndSet(t *testing.T) {
	tbl := New(8)
	idx := uint32(3)
	if !tbl.CAS(idx, 0, LockedBy(1, 0)) {
		t.Fatal("CAS from zero failed")
	}
	if tbl.CAS(idx, 0, LockedBy(2, 0)) {
		t.Fatal("CAS from stale value succeeded")
	}
	tbl.Set(idx, UnlockedAt(42))
	if Version(tbl.Get(idx)) != 42 || Locked(tbl.Get(idx)) {
		t.Fatalf("Set did not store: %+v", Decode(tbl.Get(idx)))
	}
}

func TestNewShardedRejectsBadStripeCounts(t *testing.T) {
	for _, c := range []struct{ size, stripes int }{
		{32, 0}, {32, -1}, {32, 3}, {32, 12}, {32, 64}, {3, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(%d, %d) did not panic", c.size, c.stripes)
				}
			}()
			NewSharded(c.size, c.stripes)
		}()
	}
}

func TestNewClampsDefaultStripesToSize(t *testing.T) {
	for _, size := range []int{1, 2, 8, 64, 256} {
		tbl := New(size)
		if tbl.Len() != size {
			t.Fatalf("New(%d).Len() = %d", size, tbl.Len())
		}
		if n := tbl.NumStripes(); n > size || n <= 0 {
			t.Fatalf("New(%d) has %d stripes", size, n)
		}
		if tbl.NumStripes()*tbl.StripeLen() != tbl.Len() {
			t.Fatalf("New(%d): stripes %d x %d != %d", size, tbl.NumStripes(), tbl.StripeLen(), tbl.Len())
		}
	}
}

// TestStripesPartitionSlotSpace: every slot belongs to exactly one
// in-range stripe, and the stripes split the slot space into equal parts —
// the partition half of the stripe-mapping invariant.
func TestStripesPartitionSlotSpace(t *testing.T) {
	for _, cfg := range []struct{ size, stripes int }{
		{1 << 10, 1}, {1 << 10, 4}, {1 << 10, 64}, {1 << 10, 1 << 10}, {64, 8},
	} {
		tbl := NewSharded(cfg.size, cfg.stripes)
		counts := make([]int, tbl.NumStripes())
		for idx := 0; idx < tbl.Len(); idx++ {
			s := tbl.StripeOf(uint32(idx))
			if int(s) >= tbl.NumStripes() {
				t.Fatalf("size=%d stripes=%d: slot %d maps to out-of-range stripe %d", cfg.size, cfg.stripes, idx, s)
			}
			counts[s]++
		}
		for s, n := range counts {
			if n != tbl.StripeLen() {
				t.Fatalf("size=%d stripes=%d: stripe %d owns %d slots, want %d", cfg.size, cfg.stripes, s, n, tbl.StripeLen())
			}
		}
	}
}

// TestAddressStripeMappingStableProperty: the same address always maps to
// the same slot and therefore the same stripe, on every table geometry —
// the determinism half of the stripe-mapping invariant (a waiter indexed
// under a stripe can never be missed by a writer hashing the same
// address).
func TestAddressStripeMappingStableProperty(t *testing.T) {
	words := make([]uint64, 512)
	tables := []*Table{
		NewSharded(1<<12, 1),
		NewSharded(1<<12, 4),
		NewSharded(1<<12, 64),
	}
	f := func(which []uint16) bool {
		for _, w := range which {
			addr := &words[int(w)%len(words)]
			for _, tbl := range tables {
				idx := tbl.IndexOf(addr)
				if tbl.IndexOf(addr) != idx {
					return false
				}
				if tbl.StripeOf(idx) != tbl.StripeOf(tbl.IndexOf(addr)) {
					return false
				}
				if int(tbl.StripeOf(idx)) >= tbl.NumStripes() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStripesSpreadAddresses: distinct structures (distant addresses)
// should populate many stripes, not collapse onto a few — the property
// the per-stripe wakeup index's benefit rests on.
func TestStripesSpreadAddresses(t *testing.T) {
	tbl := New(1 << 16)
	blocks := make([][]uint64, 64)
	seen := make(map[uint32]bool)
	for i := range blocks {
		blocks[i] = make([]uint64, 8)
		seen[tbl.StripeOf(tbl.IndexOf(&blocks[i][0]))] = true
	}
	if len(seen) < tbl.NumStripes()/4 {
		t.Fatalf("64 separate blocks landed on only %d/%d stripes", len(seen), tbl.NumStripes())
	}
}

// TestCrossStripeSlotsIndependent: Get/Set/CAS on slots in different
// stripes do not interfere (the global-slot API survives the sharding).
func TestCrossStripeSlotsIndependent(t *testing.T) {
	tbl := NewSharded(256, 16)
	per := uint32(tbl.StripeLen())
	a, b := uint32(0), per*3+1 // stripes 0 and 3
	tbl.Set(a, UnlockedAt(11))
	tbl.Set(b, UnlockedAt(22))
	if Version(tbl.Get(a)) != 11 || Version(tbl.Get(b)) != 22 {
		t.Fatalf("cross-stripe stores interfered: %d %d", Version(tbl.Get(a)), Version(tbl.Get(b)))
	}
	if !tbl.CAS(a, UnlockedAt(11), LockedBy(1, 11)) {
		t.Fatal("CAS on stripe 0 failed")
	}
	if Locked(tbl.Get(b)) {
		t.Fatal("CAS on stripe 0 locked a slot in stripe 3")
	}
}

func TestConcurrentCASExclusive(t *testing.T) {
	tbl := New(2)
	const goroutines = 16
	const rounds = 1000
	var wins [goroutines]int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				w := tbl.Get(0)
				if Locked(w) {
					continue
				}
				if tbl.CAS(0, w, LockedBy(uint64(id+1), Version(w))) {
					wins[id]++
					// release with a bumped version
					tbl.Set(0, UnlockedAt(Version(w)+1))
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if uint64(total) != Version(tbl.Get(0)) {
		t.Fatalf("lock acquisitions (%d) != final version (%d): lost or duplicated a CAS", total, Version(tbl.Get(0)))
	}
}

func TestStripesOfDedupsAndSorts(t *testing.T) {
	tbl := NewSharded(64, 8)                   // 8 slots per stripe
	slots := []uint32{63, 0, 17, 7, 16, 62, 1} // stripes 7,0,2,0,2,7,0
	got := tbl.StripesOf(slots, nil)
	want := []uint32{0, 2, 7}
	if len(got) != len(want) {
		t.Fatalf("StripesOf = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StripesOf = %v, want %v (ascending, deduplicated)", got, want)
		}
	}
	// Reusing a scratch buffer must not retain old entries.
	got = tbl.StripesOf([]uint32{8}, got)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("StripesOf with reused buffer = %v, want [1]", got)
	}
}
