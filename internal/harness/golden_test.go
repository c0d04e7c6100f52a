package harness

// Golden-seed regression tests for the scenario generator. The harness's
// value rests on seeds being durable: a failure seed printed months ago
// must regenerate the same program forever, and the fixed seeds CI runs
// must keep covering the same programs. Any generator change that re-rolls
// the stream — reordering draws, resizing a range, touching splitmix64 —
// changes these digests and must be a conscious decision (update the
// goldens in the same commit and say why), never silent drift.

import (
	"reflect"
	"testing"
)

var goldenScenarios = []struct {
	seed    uint64
	threads int
	digest  string
}{
	{seed: 1, threads: 4, digest: "0ce83a1b08507e60"},
	{seed: 42, threads: 3, digest: "7c6f7152a4c6ba2d"},
	{seed: 9001, threads: 4, digest: "d1d1491b4ff194b8"},
}

func TestGoldenSeedDigests(t *testing.T) {
	for _, g := range goldenScenarios {
		s := Generate(g.seed, GenConfig{})
		if s.Digest != g.digest {
			t.Errorf("seed %d: digest %s, golden %s — generator drift; if intentional, update the golden and explain why",
				g.seed, s.Digest, g.digest)
		}
		if s.Threads != g.threads {
			t.Errorf("seed %d: threads %d, golden %d", g.seed, s.Threads, g.threads)
		}
	}
}

// goldenDiversified pins seeds whose drawn filler shape is Zipf-skewed,
// single-phase read-mostly, and multi-phase. Each row states the shape it
// stands for, so a generator change that re-rolls a seed into another
// shape fails here even if the digest is re-pinned.
var goldenDiversified = []struct {
	name   string
	seed   uint64
	shape  shape
	digest string
}{
	{name: "zipf", seed: 3, shape: shape{zipf: true, phases: []mix{mixTransfers}}, digest: "6e188c53dc81c271"},
	{name: "readmostly", seed: 23, shape: shape{phases: []mix{mixScans}}, digest: "41056b7a588b843f"},
	{name: "phases", seed: 2, shape: shape{phases: []mix{mixCounters, mixMixed, mixCounters}}, digest: "7f81f91c113c518e"},
	{name: "zipf+phases", seed: 24, shape: shape{zipf: true, phases: []mix{mixScans, mixCounters, mixMixed}}, digest: "f49e66ed0632518c"},
}

func TestGoldenDiversifiedDigests(t *testing.T) {
	for _, g := range goldenDiversified {
		s := Generate(g.seed, GenConfig{})
		if !reflect.DeepEqual(s.sp.shape, g.shape) {
			t.Errorf("%s (seed %d): drew shape %+v, want %+v", g.name, g.seed, s.sp.shape, g.shape)
		}
		if s.Digest != g.digest {
			t.Errorf("%s (seed %d): digest %s, golden %s — generator drift; if intentional, update the golden and explain why",
				g.name, g.seed, s.Digest, g.digest)
		}
	}
}

func TestDiversifiedScenariosPassDifferential(t *testing.T) {
	// Each pinned shape must still hold the oracle on a real engine; one
	// engine here keeps the test fast, CI sweeps all four.
	for _, g := range goldenDiversified {
		s := Generate(g.seed, GenConfig{})
		for _, res := range RunScenario(s, []string{"eager"}, "tmcondvar") {
			if res.Failed() {
				t.Errorf("%s: %s", g.name, res.String())
			}
		}
	}
}

func TestDigestDistinguishesConfigAndFault(t *testing.T) {
	base := Generate(42, GenConfig{})
	if got := Generate(42, GenConfig{}); got.Digest != base.Digest {
		t.Fatal("same seed and config produced different digests")
	}
	if over := Generate(42, GenConfig{Threads: 8, Ops: 100}); over.Digest == base.Digest {
		t.Error("generator overrides did not change the digest")
	}
	if inj := Generate(42, GenConfig{InjectFault: true}); inj.Digest == base.Digest {
		t.Error("fault injection did not change the digest (digest must cover the executed program)")
	}
	if other := Generate(43, GenConfig{}); other.Digest == base.Digest {
		t.Error("different seeds produced identical digests")
	}
	if base.Digest == "" || len(base.Digest) != 16 {
		t.Errorf("digest %q is not a 16-hex-digit fingerprint", base.Digest)
	}
}
