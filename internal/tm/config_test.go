package tm_test

import (
	"fmt"
	"strings"
	"testing"

	"tmsync/internal/stm/eager"
	"tmsync/internal/tm"
)

// TestConfigRejects pins where a malformed Config fails: in NewSystem, on
// the constructing goroutine, with a "tm:" message.
func TestConfigRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  tm.Config
	}{
		{"HTMReadCap negative", tm.Config{HTMReadCap: -1}},
		{"HTMWriteCap negative", tm.Config{HTMWriteCap: -1}},
		{"HTMSpuriousAbortPerMille negative", tm.Config{HTMSpuriousAbortPerMille: -5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("NewSystem accepted %+v", c.cfg)
				}
				if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "tm: ") {
					t.Errorf("panic %q does not come from tm's own validation", msg)
				}
			}()
			tm.NewSystem(c.cfg, eager.New)
		})
	}
}

// TestSnapshotKeepsBenchmarkKeys pins the Stats.Snapshot keys benchmark/
// derives its per-layer metrics from. That directory is frozen between
// benchmark PRs and indexes the map directly, so a renamed or dropped key
// would silently read as zero there instead of failing to compile.
func TestSnapshotKeepsBenchmarkKeys(t *testing.T) {
	snap := tm.NewSystem(tm.Config{}, eager.New).Stats.Snapshot()
	for _, key := range []string{
		"commits", "ro_commits", "aborts", "wakeups", "futile_wakeups",
		"wake_checks", "deschedules", "serializations",
		"clock_advances", "clock_cas_retries",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("Snapshot lacks %q, which benchmark/ reads", key)
		}
	}
}

// TestClockCountersExported pins the clock's Stats counters: the clock
// advances once per writer commit, and both counters appear in the
// Snapshot map.
func TestClockCountersExported(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, eager.New)
	thr := sys.NewThread()
	var x uint64
	const n = 25
	for i := 0; i < n; i++ {
		thr.Atomic(func(tx *tm.Tx) {
			tx.Write(&x, tx.Read(&x)+1)
		})
	}
	snap := sys.Stats.Snapshot()
	if _, ok := snap["clock_cas_retries"]; !ok {
		t.Fatal("Snapshot lacks clock_cas_retries")
	}
	if got, ok := snap["clock_advances"]; !ok || got < n {
		t.Errorf("clock advances = %d (present %v), want >= %d (one per writer commit)", got, ok, n)
	}
}
