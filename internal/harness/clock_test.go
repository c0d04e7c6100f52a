package harness

// Differential clock-mode testing: Knobs.ClockMode swaps the commit-
// timestamp protocol (global fetch-and-add, GV4 pass-on-CAS-failure,
// GV5-style deferred) underneath every engine. Shared timestamps and a
// clock that only moves on too-new observations change which commits
// validate and which reads abort, but must never change an observable
// outcome. Running the generated suite under every mode pins that claim
// against the sequential oracle.

import (
	"testing"

	"tmsync/internal/clock"
)

func clockModes() []string {
	out := make([]string, 0, 3)
	for _, m := range clock.Modes() {
		out = append(out, string(m))
	}
	return out
}

func TestGeneratedSuiteIdenticalAcrossClockModes(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, mode := range clockModes() {
			for _, r := range RunScenarioKnobs(s, Engines, "", Knobs{ClockMode: mode}) {
				if !r.Pass {
					t.Errorf("clock=%s: %s", mode, r.String())
				}
			}
		}
	}
}

// TestRetryOrigIdenticalAcrossClockModes pins the Retry-Orig path, whose
// registry scans key off the write orecs committed at (possibly shared)
// timestamps.
func TestRetryOrigIdenticalAcrossClockModes(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	stmEngines := []string{"eager", "lazy"} // Retry-Orig needs STM metadata
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, mode := range clockModes() {
			for _, r := range RunScenarioKnobs(s, stmEngines, "retry-orig", Knobs{ClockMode: mode}) {
				if !r.Pass {
					t.Errorf("clock=%s: %s", mode, r.String())
				}
			}
		}
	}
}

// TestInjectedFaultStillCaughtAcrossClockModes keeps the checker honest:
// a quieter clock must not mask real invariant violations.
func TestInjectedFaultStillCaughtAcrossClockModes(t *testing.T) {
	s := Generate(7, GenConfig{InjectFault: true})
	for _, mode := range []string{"pof", "deferred"} {
		res := RunScenarioKnobs(s, Engines, "", Knobs{ClockMode: mode})
		var rep Report
		rep.Add(res)
		if rep.AllPassed() {
			t.Errorf("clock=%s: injected violation went undetected", mode)
		}
	}
}

// TestKnobRoundTripClock pins the trace stamp for the clock knob.
func TestKnobRoundTripClock(t *testing.T) {
	in := Knobs{ClockMode: "deferred"}
	enc := EncodeKnobs(in)
	out, err := DecodeKnobs(enc)
	if err != nil {
		t.Fatalf("DecodeKnobs(%q): %v", enc, err)
	}
	if out != in {
		t.Fatalf("round trip %q: got %+v, want %+v", enc, out, in)
	}
	if _, err := DecodeKnobs("clock=bogus"); err == nil {
		t.Fatal("DecodeKnobs accepted clock=bogus")
	}
}
