package harness

// Record→replay round-trip property: for any generated scenario, running
// it with the recorder attached, encoding the trace to text, decoding it
// back, and reconstructing a scenario must reproduce the executed
// program's digest exactly — across every GenConfig variant, including
// injected faults (the trace captures what actually ran). The default
// row's seeds draw every filler shape (even -short's eight: seeds 1–6
// already do, per TestSeedsCoverEveryShape). This is what makes a
// committed fixture trustworthy: the bytes in the file fingerprint the
// precise program every future replay will run.

import (
	"bytes"
	"testing"

	"tmsync/internal/mech"
	"tmsync/internal/trace"
)

var roundTripConfigs = []struct {
	name string
	cfg  GenConfig
}{
	{"default", GenConfig{}},
	{"overrides", GenConfig{Threads: 3, Ops: 12}},
	{"inject", GenConfig{InjectFault: true}},
}

func TestRecordReplayDigestRoundTrip(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for _, c := range roundTripConfigs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				s := Generate(seed, c.cfg)
				tr, res, err := Record(s, "eager", mech.Retry)
				if err != nil {
					t.Fatalf("seed %d: record: %v", seed, err)
				}
				if c.cfg.InjectFault {
					if res.Pass {
						t.Errorf("seed %d: injected fault went undetected during recording", seed)
					}
				} else if !res.Pass {
					t.Fatalf("seed %d: recorded run failed: %s", seed, res.String())
				}

				var buf bytes.Buffer
				if err := trace.Encode(&buf, tr); err != nil {
					t.Fatalf("seed %d: encode: %v", seed, err)
				}
				dec, err := trace.Decode(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("seed %d: decode of our own encoding: %v\n%s", seed, err, buf.String())
				}
				var re bytes.Buffer
				if err := trace.Encode(&re, dec); err != nil {
					t.Fatalf("seed %d: re-encode: %v", seed, err)
				}
				if !bytes.Equal(buf.Bytes(), re.Bytes()) {
					t.Fatalf("seed %d: encode→decode→encode is not a fixed point", seed)
				}

				rs, err := ReplayTrace(dec)
				if err != nil {
					t.Fatalf("seed %d: replay: %v", seed, err)
				}
				if rs.Digest != s.Digest {
					t.Errorf("seed %d: replayed digest %s != recorded program digest %s", seed, rs.Digest, s.Digest)
				}
				if rs.Threads != s.Threads {
					t.Errorf("seed %d: replayed threads %d != %d", seed, rs.Threads, s.Threads)
				}
			}
		})
	}
}

// TestReplayedScenarioPassesDifferential closes the loop end to end: a
// replayed trace is not just digest-identical, it actually runs and holds
// the oracle — including for a recorded *injected* run, where the trace
// captures the faulty program and replay's oracle is recomputed from it,
// so the replay itself passes — and for seed 23, whose filler draws only
// from the read-mostly mix.
func TestReplayedScenarioPassesDifferential(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		cfg  GenConfig
	}{{7, GenConfig{}}, {7, GenConfig{InjectFault: true}}, {23, GenConfig{}}} {
		s := Generate(c.seed, c.cfg)
		tr, _, err := Record(s, "lazy", mech.WaitPred)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ReplayTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range RunScenario(rs, []string{"eager", "htm"}, mech.Retry) {
			if res.Failed() {
				t.Errorf("seed %d inject=%v: %s", c.seed, c.cfg.InjectFault, res.String())
			}
		}
	}
}

// TestRecordRejectsNonSpecScenario pins the spec-backed restriction.
func TestRecordRejectsNonSpecScenario(t *testing.T) {
	s := &Scenario{Name: "registered", Oracle: func() Observation { return Observation{} }}
	if _, _, err := Record(s, "eager", mech.Retry); err == nil {
		t.Error("recording a non-spec scenario must error")
	}
}
