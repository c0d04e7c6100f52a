package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
	}{
		{"", Global},
		{"global", Global},
		{"pof", POF},
		{"deferred", Deferred},
	} {
		got, err := ParseMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) did not fail")
	}
}

func TestNewUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(bogus) did not panic")
		}
	}()
	New(Mode("bogus"), nil, nil)
}

func TestZeroTime(t *testing.T) {
	for _, m := range Modes() {
		if c := New(m, nil, nil); c.Now() != 0 {
			t.Errorf("%s: fresh clock reads %d", m, c.Now())
		}
	}
}

func TestModeIdentity(t *testing.T) {
	for _, m := range Modes() {
		if got := New(m, nil, nil).Mode(); got != m {
			t.Errorf("New(%s).Mode() = %s", m, got)
		}
	}
}

// TestAtLeastNeverRegresses covers every mode: AtLeast moves the clock
// forward to the target and never backwards.
func TestAtLeastNeverRegresses(t *testing.T) {
	for _, m := range Modes() {
		c := New(m, nil, nil)
		c.AtLeast(100)
		if c.Now() != 100 {
			t.Fatalf("%s: AtLeast(100): now=%d", m, c.Now())
		}
		c.AtLeast(50) // must not go backwards
		if c.Now() != 100 {
			t.Fatalf("%s: AtLeast(50) moved clock backwards to %d", m, c.Now())
		}
	}
}

// TestCommitMonotonic pins the single-threaded contract of every mode:
// Commit's end always exceeds the start it was given, and Now never
// runs ahead of published versions by more than the mode's invariant
// (versions <= Now()+1).
func TestCommitMonotonic(t *testing.T) {
	for _, m := range Modes() {
		c := New(m, nil, nil)
		for i := 0; i < 100; i++ {
			start := c.Now()
			end, _ := c.Commit(start, 0)
			if end <= start {
				t.Fatalf("%s: Commit(%d) = %d, not after start", m, start, end)
			}
			if end > c.Now()+1 {
				t.Fatalf("%s: end %d exceeds Now()+1 = %d", m, end, c.Now()+1)
			}
			// Simulate the release: published versions become visible,
			// so a later snapshot must be able to read them eventually.
			c.NoteStale(end)
			if c.Now() < end && m == Deferred {
				t.Fatalf("%s: NoteStale(%d) left clock at %d", m, end, c.Now())
			}
		}
	}
}

// TestGlobalExclusiveUncontended: with no concurrent committers, every
// global-mode commit gets the validation-skipping fast path, and
// timestamps advance by exactly one.
func TestGlobalExclusiveUncontended(t *testing.T) {
	c := New(Global, nil, nil)
	for i := uint64(1); i <= 10; i++ {
		end, excl := c.Commit(i-1, 0)
		if end != i || !excl {
			t.Fatalf("Commit #%d = %d, exclusive=%v", i, end, excl)
		}
	}
}

// TestDeferredCommitQuiet: deferred commits never touch the shared
// word — Now stays put and no advances are counted.
func TestDeferredCommitQuiet(t *testing.T) {
	var retries, advances atomic.Uint64
	c := New(Deferred, &retries, &advances)
	c.AtLeast(7)
	advances.Store(0)
	for i := 0; i < 100; i++ {
		end, excl := c.Commit(7, 0)
		if end != 8 || excl {
			t.Fatalf("Commit = %d, exclusive=%v; want 8, false", end, excl)
		}
	}
	c.Bump() // must also stay quiet in this mode
	if c.Now() != 7 || advances.Load() != 0 || retries.Load() != 0 {
		t.Fatalf("deferred commit produced clock traffic: now=%d advances=%d retries=%d",
			c.Now(), advances.Load(), retries.Load())
	}
}

// TestCounters pins the uncontended counter semantics: every global
// advance is counted — read off the word itself, so a jump counts its
// distance and Commit and Bump write no counter — pof counts its
// successful CASes, and AtLeast on an already-ahead clock counts nothing.
func TestCounters(t *testing.T) {
	for m, want := range map[Mode]uint64{Global: 10, POF: 3} {
		var retries, advances atomic.Uint64
		c := New(m, &retries, &advances)
		c.Commit(0, 0)
		c.Bump()
		if m == Global && advances.Load() != 0 {
			t.Errorf("global Commit/Bump wrote the advances counter (%d): a second shared line per commit", advances.Load())
		}
		c.AtLeast(10)
		c.AtLeast(5) // no-op: already past 5
		if c.Advances() != want {
			t.Errorf("%s: Advances() = %d, want %d", m, c.Advances(), want)
		}
		if retries.Load() != 0 {
			t.Errorf("%s: retries = %d, want 0", m, retries.Load())
		}
	}
}

// TestConcurrentCommitUniqueTimestamps is the global mode's defining
// property: concurrent committers all receive distinct timestamps and
// the final clock equals the number of commits.
func TestConcurrentCommitUniqueTimestamps(t *testing.T) {
	c := New(Global, nil, nil)
	const goroutines = 8
	const per = 10000
	results := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out := make([]uint64, per)
			for i := range out {
				out[i], _ = c.Commit(0, 0)
			}
			results[id] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*per)
	for _, r := range results {
		prev := uint64(0)
		for _, v := range r {
			if v <= prev {
				t.Fatal("Commit not monotonic within a goroutine")
			}
			prev = v
			if seen[v] {
				t.Fatalf("timestamp %d issued twice", v)
			}
			seen[v] = true
		}
	}
	if c.Now() != goroutines*per {
		t.Fatalf("final clock %d, want %d", c.Now(), goroutines*per)
	}
}

// TestPOFSharedTimestampTolerance is the pof property test from the
// issue: hammer Commit from many goroutines, each simulating the
// engine protocol (snapshot Now, commit, "publish" version end). The
// published versions must never exceed the clock, per-goroutine ends
// never regress, exclusivity is only ever granted for end == start+1,
// and the clock's final value never exceeds the number of commits
// (adoption means it is usually far less).
func TestPOFSharedTimestampTolerance(t *testing.T) {
	var retries, advances atomic.Uint64
	c := New(POF, &retries, &advances)
	const goroutines = 8
	const per = 5000
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := uint64(0)
			for i := 0; i < per; i++ {
				start := c.Now()
				end, excl := c.Commit(start, 0)
				if end <= start {
					errs <- "end not after start"
					return
				}
				if excl && end != start+1 {
					errs <- "exclusive commit with end != start+1"
					return
				}
				// The version this commit would publish must already be
				// covered by the clock: pof only hands out end values the
				// shared word has reached.
				if now := c.Now(); end > now {
					errs <- "published version ahead of the clock"
					return
				}
				if end < prev {
					errs <- "per-goroutine end regressed"
					return
				}
				prev = end
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	total := uint64(goroutines * per)
	if now := c.Now(); now > total {
		t.Fatalf("clock %d ran ahead of %d commits", now, total)
	}
	if advances.Load()+retries.Load() == 0 {
		t.Fatal("no clock traffic counted")
	}
}

// TestCommitExceedsHeld pins the per-orec monotonicity contract of
// every mode: a commit stamp strictly exceeds the highest version the
// committer holds locked, so two successive commits to the same orec
// can never publish the same version.
func TestCommitExceedsHeld(t *testing.T) {
	for _, m := range Modes() {
		c := New(m, nil, nil)
		held := uint64(0)
		for i := 0; i < 100; i++ {
			end, _ := c.Commit(c.Now(), held)
			if end <= held {
				t.Fatalf("%s: Commit with held=%d returned %d (version reuse)", m, held, end)
			}
			held = end // the next committer of this orec locks version end
		}
	}
}

// TestDeferredStampsChainOffHeld is the regression for the deferred
// stamp-collision bug: the shared word never moves on commit, so
// without the held argument two back-to-back commits to the same orec
// would both publish Now()+1 — letting a reader whose sample straddles
// the second commit accept a torn value against a bit-identical
// republished orec word. The stamps
// must chain off the held version with zero shared-word traffic.
func TestDeferredStampsChainOffHeld(t *testing.T) {
	var retries, advances atomic.Uint64
	c := New(Deferred, &retries, &advances)
	end1, _ := c.Commit(0, 0)
	end2, _ := c.Commit(0, end1)
	end3, _ := c.Commit(0, end2)
	if end1 != 1 || end2 != 2 || end3 != 3 {
		t.Fatalf("chained deferred stamps = %d, %d, %d; want 1, 2, 3", end1, end2, end3)
	}
	if c.Now() != 0 || advances.Load() != 0 || retries.Load() != 0 {
		t.Fatalf("held chaining touched the shared word: now=%d advances=%d retries=%d",
			c.Now(), advances.Load(), retries.Load())
	}
}

// TestNowMonotonicUnderConcurrency samples Now while other goroutines
// drive each mode's advance paths; observed time must never decrease.
func TestNowMonotonicUnderConcurrency(t *testing.T) {
	for _, m := range Modes() {
		c := New(m, nil, nil)
		var committers sync.WaitGroup
		for g := 0; g < 4; g++ {
			committers.Add(1)
			go func() {
				defer committers.Done()
				for i := 0; i < 2000; i++ {
					end, _ := c.Commit(c.Now(), 0)
					c.NoteStale(end)
					if i%64 == 0 {
						c.Bump()
					}
				}
			}()
		}
		stop := make(chan struct{})
		samplerDone := make(chan struct{})
		go func() {
			defer close(samplerDone)
			prev := uint64(0)
			for {
				now := c.Now()
				if now < prev {
					t.Errorf("%s: Now went backwards: %d after %d", m, now, prev)
					return
				}
				prev = now
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		committers.Wait()
		close(stop)
		<-samplerDone
	}
}

// TestWordLineIsolated pins what word's two-sided padding is for. A Source
// is allocated 16-byte aligned on the heap (8 at worst), not line aligned,
// so the cache line the clock word falls on starts anywhere from 0 to 56
// bytes before it: at every such offset that whole line must lie inside
// the word struct, whose only other contents are padding — no counter
// pointer of the Source and no neighbouring heap object shares it.
func TestWordLineIsolated(t *testing.T) {
	const line, align = 64, 8
	var w word
	now, size := unsafe.Offsetof(w.now), unsafe.Sizeof(w)
	for base := uintptr(0); base < line; base += align {
		lo := (base + now) &^ (line - 1)
		if lo < base || lo+line > base+size {
			t.Errorf("word at %d mod %d: the clock's line [%d,%d) leaves the struct [%d,%d)", base, line, lo, lo+line, base, base+size)
		}
	}
	for name, off := range map[string]uintptr{
		"global": unsafe.Offsetof(global{}.w), "pof": unsafe.Offsetof(pof{}.w), "deferred": unsafe.Offsetof(deferred{}.w),
	} {
		if off%align != 0 {
			t.Errorf("%s: word at offset %d, not %d-byte aligned: the offsets above do not cover it", name, off, align)
		}
	}
}
