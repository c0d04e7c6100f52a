package tm_test

// Clock-mode integration tests for the tm layer: Config validation of
// ClockMode, the Stats clock counters, and — the regression the deferred
// protocol makes interesting — Quiesce ordering. Deferred commit
// timestamps are at least Now()+1 without advancing the clock, so end
// is >= the published ActiveStart of every transaction whose snapshot
// the committer could race with; Quiesce must therefore still wait for
// a live earlier-start transaction, even though the committer never
// uniquely owned its timestamp.

import (
	"testing"
	"time"

	"tmsync/internal/stm/eager"
	"tmsync/internal/tm"
)

func TestConfigRejectsUnknownClockMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem accepted ClockMode \"bogus\"")
		}
	}()
	tm.NewSystem(tm.Config{ClockMode: "bogus"}, eager.New)
}

func TestClockModeAccepted(t *testing.T) {
	for _, mode := range []string{"", "global", "pof", "deferred"} {
		sys := tm.NewSystem(tm.Config{ClockMode: mode}, eager.New)
		thr := sys.NewThread()
		var x uint64
		for i := 0; i < 10; i++ {
			thr.Atomic(func(tx *tm.Tx) {
				tx.Write(&x, tx.Read(&x)+1)
			})
		}
		if x != 10 {
			t.Errorf("clock=%q: x = %d, want 10", mode, x)
		}
	}
}

// TestClockCountersExported pins the new Stats counters: the global
// clock counts one advance per writer commit, the deferred clock keeps
// the shared word quiet on the commit path (advances only via NoteStale,
// which single-threaded re-execution also exercises), and both appear in
// the Snapshot map.
func TestClockCountersExported(t *testing.T) {
	sys := tm.NewSystem(tm.Config{ClockMode: "global"}, eager.New)
	thr := sys.NewThread()
	var x uint64
	const n = 25
	for i := 0; i < n; i++ {
		thr.Atomic(func(tx *tm.Tx) {
			tx.Write(&x, tx.Read(&x)+1)
		})
	}
	snap := sys.Stats.Snapshot()
	if _, ok := snap["clock_advances"]; !ok {
		t.Fatal("Snapshot lacks clock_advances")
	}
	if _, ok := snap["clock_cas_retries"]; !ok {
		t.Fatal("Snapshot lacks clock_cas_retries")
	}
	if got := snap["clock_advances"]; got < n {
		t.Errorf("global clock advances = %d, want >= %d (one per writer commit)", got, n)
	}
}

// TestDeferredClockQuiesceOrdering is the quiesce-ordering regression
// test: with the deferred clock, a committing writer's end >= Now()+1 is
// never "ahead" of the clock the way unique global timestamps are, and a
// buggy Quiesce comparison could conclude that a live transaction with
// an equal-or-earlier start needs no wait. Pin the contract directly: a
// reader that published ActiveStart before the writer's commit must
// block the writer's Atomic until the reader retires.
func TestDeferredClockQuiesceOrdering(t *testing.T) {
	sys := tm.NewSystem(tm.Config{ClockMode: "deferred"}, eager.New)
	reader := sys.NewThread()
	writer := sys.NewThread()

	// The reader publishes a live attempt at the current clock, exactly
	// as Begin would, and stays live (no commit, no abort).
	reader.PublishStart()

	var x uint64
	done := make(chan struct{})
	go func() {
		writer.Atomic(func(tx *tm.Tx) {
			tx.Write(&x, 1)
		})
		close(done)
	}()

	// The writer's commit must stay parked in Quiesce while the
	// earlier-start reader is live. Give it ample time to (wrongly)
	// return early.
	select {
	case <-done:
		t.Fatal("writer commit returned while an earlier-start transaction was live")
	case <-time.After(50 * time.Millisecond):
	}

	// Retiring the reader releases the writer.
	reader.ActiveStart.Store(0)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer commit never returned after the reader retired")
	}
}
