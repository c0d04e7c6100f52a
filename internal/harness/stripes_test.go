package harness

// Differential stripe testing: the orec-table stripe count is a pure
// performance knob, so the whole scenario suite must produce identical
// oracle outcomes at any stripe count. Running the suite at {1, 4, 64}
// proves the sharded table and the per-stripe waiter index observably
// equivalent to the old global table and global wakeup scan (1 stripe IS
// the old global behaviour).

import (
	"testing"
)

var stripeCounts = []int{1, 4, 64}

func TestGeneratedSuiteIdenticalAcrossStripeCounts(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, stripes := range stripeCounts {
			for _, r := range RunScenarioKnobs(s, Engines, "", Knobs{Stripes: stripes}) {
				if !r.Pass {
					t.Errorf("stripes=%d: %s", stripes, r.String())
				}
			}
		}
	}
}

func TestParsecScenarioIdenticalAcrossStripeCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full parsec stripe sweep is not short")
	}
	for _, s := range ParsecScenarios(4, 1) {
		for _, stripes := range stripeCounts {
			for _, r := range RunScenarioKnobs(s, Engines, "", Knobs{Stripes: stripes}) {
				if !r.Pass {
					t.Errorf("stripes=%d: %s", stripes, r.String())
				}
			}
		}
	}
}

// TestRetryOrigShardedIdenticalAcrossStripeCounts is the sharded
// Retry-Orig registry's differential proof: the registry has one shard
// per orec-table stripe, and one stripe IS the original global registry
// with its single lock — so restricting the generated suite to the
// retry-orig mechanism at {1, 4, 64} stripes pins the sharded
// validate-and-insert protocol against Algorithm 1's global behaviour.
func TestRetryOrigShardedIdenticalAcrossStripeCounts(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	stmEngines := []string{"eager", "lazy"} // Retry-Orig needs STM metadata
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, stripes := range stripeCounts {
			for _, r := range RunScenarioKnobs(s, stmEngines, "retry-orig", Knobs{Stripes: stripes}) {
				if !r.Pass {
					t.Errorf("retry-orig stripes=%d: %s", stripes, r.String())
				}
			}
		}
	}
}

// adaptiveKnobs is the forced online-resize configuration the suite runs
// under: start at one stripe (the old global table) and swap the geometry
// every few commits through growth, a large jump, and shrinkage, cycling.
var adaptiveKnobs = Knobs{Stripes: 1, ResizeEvery: 5, ResizeSchedule: []int{4, 64, 16, 1}}

// TestGeneratedSuiteIdenticalUnderForcedResizes is the online-resize
// differential proof: swapping the stripe geometry while transactions run
// and waiters sleep — including the engine-side generation aborts and the
// registry migration — must be observably inert, for every engine x
// mechanism pair, against the same sequential oracle.
func TestGeneratedSuiteIdenticalUnderForcedResizes(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, r := range RunScenarioKnobs(s, Engines, "", adaptiveKnobs) {
			if !r.Pass {
				t.Errorf("forced resizes: %s", r.String())
			}
		}
	}
}

// TestRetryOrigIdenticalUnderForcedResizes pins the sharded Retry-Orig
// registry's all-shards validate-and-insert against online migration: an
// entry registered before a swap must survive it and wake exactly once.
func TestRetryOrigIdenticalUnderForcedResizes(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, r := range RunScenarioKnobs(s, []string{"eager", "lazy"}, "retry-orig", adaptiveKnobs) {
			if !r.Pass {
				t.Errorf("retry-orig forced resizes: %s", r.String())
			}
		}
	}
}

// TestParsecScenarioIdenticalUnderForcedResizes runs the PARSEC skeletons
// across forced resizes (not short: the skeletons are the long pole).
func TestParsecScenarioIdenticalUnderForcedResizes(t *testing.T) {
	if testing.Short() {
		t.Skip("full parsec forced-resize sweep is not short")
	}
	for _, s := range ParsecScenarios(4, 1) {
		for _, r := range RunScenarioKnobs(s, Engines, "", adaptiveKnobs) {
			if !r.Pass {
				t.Errorf("forced resizes: %s", r.String())
			}
		}
	}
}

// TestInjectedFaultStillCaughtUnderForcedResizes guards the detection
// path: online resizing must not blunt the harness's ability to flag a
// deliberately broken program.
func TestInjectedFaultStillCaughtUnderForcedResizes(t *testing.T) {
	s := Generate(7, GenConfig{InjectFault: true})
	for _, r := range RunScenarioKnobs(s, []string{"eager"}, "retry", adaptiveKnobs) {
		if r.Pass {
			t.Error("forced resizes: injected fault went undetected")
		}
	}
}

// TestInjectedFaultStillCaughtAtEveryStripeCount guards the detection
// path itself: sharding must not blunt the harness's ability to flag a
// deliberately broken program.
func TestInjectedFaultStillCaughtAtEveryStripeCount(t *testing.T) {
	s := Generate(7, GenConfig{InjectFault: true})
	for _, stripes := range stripeCounts {
		results := RunScenarioKnobs(s, []string{"eager"}, "retry", Knobs{Stripes: stripes})
		for _, r := range results {
			if r.Pass {
				t.Errorf("stripes=%d: injected fault went undetected", stripes)
			}
		}
	}
}
