package lazy_test

import (
	"testing"

	"tmsync/internal/locktable"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// TestWritesInvisibleUntilCommit is the defining lazy-STM property:
// another thread reading mid-transaction sees only committed state.
func TestWritesInvisibleUntilCommit(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, lazy.New)
	t1 := sys.NewThread()
	t2 := sys.NewThread()
	var x uint64 = 1
	var observed uint64
	t1.Atomic(func(tx *tm.Tx) {
		tx.Write(&x, 99)
		// Direct memory must still hold the committed value; a concurrent
		// reader commits against the old state.
		t2.Atomic(func(tx2 *tm.Tx) { observed = tx2.Read(&x) })
		if observed != 1 {
			t.Errorf("concurrent reader saw buffered write: %d", observed)
		}
	})
	if x != 99 {
		t.Fatalf("x = %d after commit", x)
	}
}

// TestCommitLocksReleasedOnAbort checks that a commit that fails
// validation releases all acquired orecs so the system keeps running.
func TestCommitLocksReleasedOnAbort(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, lazy.New)
	thr := sys.NewThread()
	words := make([]uint64, 8)
	a, b := &words[0], &words[1]
	for i := 2; sys.Table.IndexOf(a) == sys.Table.IndexOf(b); i++ {
		b = &words[i]
	}
	attempts := 0
	thr.Atomic(func(tx *tm.Tx) {
		attempts++
		_ = tx.Read(a)
		tx.Write(b, 5)
		if attempts == 1 {
			// Invalidate the read as a concurrent commit to a would: its
			// orec moves past the snapshot and the clock covers the new
			// version, so the commit acquires b's orec and then fails
			// validation.
			v := tx.Start + 1
			sys.Table.Set(sys.Table.IndexOf(a), locktable.UnlockedAt(v))
			sys.Clock.AtLeast(v)
		}
	})
	if attempts < 2 {
		t.Fatalf("attempts = %d, want ≥ 2", attempts)
	}
	// Every orec must be unlocked now.
	if locktable.Locked(sys.Table.Get(sys.Table.IndexOf(b))) {
		t.Fatal("orec leaked after commit-time abort")
	}
	if *b != 5 {
		t.Fatalf("b = %d", *b)
	}
}

// TestReadOwnWriteThroughRedo checks read-after-write served from the redo
// log, including after overwrites.
func TestReadOwnWriteThroughRedo(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, lazy.New)
	thr := sys.NewThread()
	var x uint64 = 3
	thr.Atomic(func(tx *tm.Tx) {
		tx.Write(&x, 10)
		tx.Write(&x, 20)
		if got := tx.Read(&x); got != 20 {
			t.Errorf("read-own-write = %d", got)
		}
		if x != 3 {
			t.Errorf("memory mutated before commit: %d", x)
		}
	})
	if x != 20 {
		t.Fatalf("x = %d", x)
	}
}

// TestSameOrecMultipleWrites exercises commit when several written
// addresses share one orec (the holds() fast path). A backing array of
// four words per orec holds such collisions; the transaction writes every
// word of two colliding groups.
func TestSameOrecMultipleWrites(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, lazy.New)
	backing := make([]uint64, 4*sys.Table.Len())
	byOrec := make(map[uint32][]*uint64)
	var words []*uint64
	for i := range backing {
		idx := sys.Table.IndexOf(&backing[i])
		if byOrec[idx] = append(byOrec[idx], &backing[i]); len(byOrec[idx]) == 3 {
			if words = append(words, byOrec[idx]...); len(words) == 6 {
				break
			}
		}
	}
	if len(words) != 6 {
		t.Fatalf("found %d words in colliding groups of 3, want 6", len(words))
	}
	thr := sys.NewThread()
	thr.Atomic(func(tx *tm.Tx) {
		for i, w := range words {
			tx.Write(w, uint64(i)+1)
		}
	})
	for i, w := range words {
		if *w != uint64(i)+1 {
			t.Fatalf("word %d = %d", i, *w)
		}
	}
	for idx := 0; idx < sys.Table.Len(); idx++ {
		if locktable.Locked(sys.Table.Get(uint32(idx))) {
			t.Fatalf("orec %d left locked", idx)
		}
	}
}
