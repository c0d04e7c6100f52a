package htm_test

import (
	"testing"

	"tmsync/internal/htm"
	"tmsync/internal/tm"
)

// TestSerializationPolicy verifies the GCC-style progress guarantee: a
// transaction that keeps aborting in hardware runs serially after
// HTMMaxRetries attempts and then commits.
func TestSerializationPolicy(t *testing.T) {
	sys := tm.NewSystem(tm.Config{HTMMaxRetries: 2}, htm.New)
	thr := sys.NewThread()
	var x uint64
	attempts := 0
	thr.Atomic(func(tx *tm.Tx) {
		attempts++
		tx.Write(&x, uint64(attempts))
		if tx.Mode == tm.ModeHW {
			tx.Abort(tm.AbortExplicit) // keep failing in hardware
		}
	})
	// Attempts 1–2 run in hardware; attempt 3 (Attempts > HTMMaxRetries)
	// serializes and commits.
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (2 hardware + 1 serial)", attempts)
	}
	if sys.Stats.Sum().Serializations != 1 {
		t.Fatalf("serializations = %d", sys.Stats.Sum().Serializations)
	}
	if x != 3 {
		t.Fatalf("x = %d", x)
	}
}

// TestHWModeReported verifies uncontended transactions run in hardware.
func TestHWModeReported(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, htm.New)
	thr := sys.NewThread()
	var mode tm.Mode
	var x uint64
	thr.Atomic(func(tx *tm.Tx) {
		mode = tx.Mode
		tx.Write(&x, 1)
	})
	if mode != tm.ModeHW {
		t.Fatalf("mode = %v, want hw", mode)
	}
	if sys.Stats.Sum().Serializations != 0 {
		t.Fatal("uncontended transaction serialized")
	}
}

// TestReadCapacityAbort verifies the read-set bound fires separately from
// the write bound.
func TestReadCapacityAbort(t *testing.T) {
	sys := tm.NewSystem(tm.Config{HTMReadCap: 8, HTMWriteCap: 1024}, htm.New)
	thr := sys.NewThread()
	words := make([]uint64, 64)
	var sum uint64
	thr.Atomic(func(tx *tm.Tx) {
		sum = 0
		for i := range words {
			sum += tx.Read(&words[i])
		}
		tx.Write(&words[0], sum+1) // make it a writer so commit is real
	})
	if sys.Stats.Sum().CapacityAborts == 0 {
		t.Fatal("no capacity abort despite 64 reads against a cap of 8")
	}
	if words[0] != 1 {
		t.Fatalf("words[0] = %d", words[0])
	}
}
