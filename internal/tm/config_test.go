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
// panic, and never later on a committing thread (a forced-resize schedule
// is first consulted ResizeEvery writer commits into the run).
func TestConfigRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  tm.Config
	}{
		{"TableSize not a power of two", tm.Config{TableSize: 3}},
		{"TableSize negative", tm.Config{TableSize: -64}},
		{"Stripes not a power of two", tm.Config{Stripes: 3}},
		{"Stripes negative", tm.Config{Stripes: -4}},
		{"MinStripes not a power of two", tm.Config{MinStripes: 6}},
		{"MinStripes negative", tm.Config{MinStripes: -1}},
		{"MaxStripes not a power of two", tm.Config{MaxStripes: 48}},
		{"MaxStripes negative", tm.Config{MaxStripes: -8}},
		{"ResizeEvery negative", tm.Config{ResizeEvery: -1}},
		{"ResizeSchedule zero entry", tm.Config{ResizeEvery: 5, ResizeSchedule: []int{4, 0}}},
		{"ResizeSchedule entry not a power of two", tm.Config{ResizeEvery: 5, ResizeSchedule: []int{4, 12}}},
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
	for _, cfg := range []tm.Config{
		{TableSize: 64, Stripes: 128},
		{Stripes: 64, MaxStripes: 16},
		{Stripes: 4, MinStripes: 16, MaxStripes: 8},
		{TableSize: 16, ResizeEvery: 5, ResizeSchedule: []int{64}},
	} {
		c := tm.NewSystem(cfg, eager.New).Cfg
		if !(c.MinStripes <= c.Stripes && c.Stripes <= c.MaxStripes && c.MaxStripes <= c.TableSize) {
			t.Errorf("%+v resolved to TableSize=%d Stripes=%d in [%d, %d]", cfg, c.TableSize, c.Stripes, c.MinStripes, c.MaxStripes)
		}
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
