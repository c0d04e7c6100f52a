package tm_test

import (
	"fmt"
	"strings"
	"testing"

	"tmsync/internal/stm/eager"
	"tmsync/internal/tm"
)

// TestConfigRejects pins where a malformed Config fails: in NewSystem, on
// the constructing goroutine, with a "tm:" message — never as a locktable
// panic.
func TestConfigRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  tm.Config
	}{
		{"TableSize not a power of two", tm.Config{TableSize: 3}},
		{"TableSize negative", tm.Config{TableSize: -64}},
		{"Stripes not a power of two", tm.Config{Stripes: 3}},
		{"Stripes negative", tm.Config{Stripes: -4}},
		{"ClockMode unknown", tm.Config{ClockMode: "bogus"}},
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

// TestConfigClampsOutOfRangeStripeBounds pins the other half of the
// contract: well-formed values that merely disagree with one another are
// reconciled, not rejected.
func TestConfigClampsOutOfRangeStripeBounds(t *testing.T) {
	cfg := tm.Config{TableSize: 64, Stripes: 128}
	sys := tm.NewSystem(cfg, eager.New)
	if c := sys.Cfg; c.Stripes != 64 || sys.Table.NumStripes() != 64 {
		t.Errorf("%+v resolved to TableSize=%d Stripes=%d over a %d-stripe table, want 64 stripes", cfg, c.TableSize, c.Stripes, sys.Table.NumStripes())
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
