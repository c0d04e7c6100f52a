package trace_test

// Golden-trace regression fixtures. Each file under testdata/ distills
// one wakeup-race program shape into a committed, replayable artifact:
// the trace pins the program and its knob stamp (all three run under the
// default configuration), and this test replays every fixture through
// all four engines × every applicable mechanism, asserting the oracle
// holds. A regression of any of those races shows up here as a wedge
// (lost wakeup) or an oracle diff, with the fixture file itself as the
// reproducer. The digest pins detect silent drift of the
// fixtures or of the trace→scenario reconstruction.

import (
	"os"
	"path/filepath"
	"testing"

	"tmsync/internal/harness"
	"tmsync/internal/trace"
)

var goldenTraces = []struct {
	file   string
	digest string
	knobs  string
}{
	{file: "stale_token.trace", digest: "6cacdc9e810837ce", knobs: ""},
	{file: "oncommit_clobber.trace", digest: "44f7a954d559aa81", knobs: ""},
	{file: "idle_strand.trace", digest: "9e439c2183bfa843", knobs: ""},
}

func TestGoldenTracesReplayOracleIdentical(t *testing.T) {
	for _, g := range goldenTraces {
		g := g
		t.Run(g.file, func(t *testing.T) {
			t.Parallel()
			f, err := os.Open(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tr, err := trace.Decode(f)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			s, k, err := harness.ReplayTrace(tr)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if got := harness.EncodeKnobs(k); got != g.knobs {
				t.Errorf("knob stamp %q, want %q", got, g.knobs)
			}
			if s.Digest != g.digest {
				t.Errorf("digest %s, golden %s — fixture or reconstruction drift; if intentional, update the golden and explain why", s.Digest, g.digest)
			}
			for _, res := range harness.RunScenarioKnobs(s, harness.Engines, "", k) {
				if res.Failed() {
					t.Errorf("%s", res.String())
				}
			}
		})
	}
}
