package harness

// Differential stripe testing: the orec-table stripe count is a pure
// performance knob, so the whole scenario suite must produce identical
// oracle outcomes at any stripe count. Running the suite at {1, 4, 64}
// proves the sharded table and the per-stripe waiter index — which lists
// Retry-Orig sleepers too — observably equivalent to the old global table
// and global wakeup scan (1 stripe IS the old global behaviour, and
// Algorithm 1's one registry under one lock).

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
