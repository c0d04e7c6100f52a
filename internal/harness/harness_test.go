package harness

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tmsync/internal/mech"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a := Generate(seed, GenConfig{})
		b := Generate(seed, GenConfig{})
		if a.Name != b.Name || a.Threads != b.Threads {
			t.Fatalf("seed %d: shape differs across calls", seed)
		}
		if !reflect.DeepEqual(a.Oracle(), b.Oracle()) {
			t.Fatalf("seed %d: oracle differs across calls:\n%v\n%v", seed, a.Oracle(), b.Oracle())
		}
	}
}

func TestGeneratedScenarioRunsMatchOracleEverywhere(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		s := Generate(seed, GenConfig{})
		for _, r := range RunScenario(s, Engines, "") {
			if !r.Pass {
				t.Errorf("%s", r.String())
			}
		}
	}
}

func TestSameSeedSameObservationAcrossEngines(t *testing.T) {
	// The differential property stated directly: two arbitrary engine ×
	// mechanism pairs observe identical final state for the same seed.
	s := Generate(42, GenConfig{})
	sysA, _ := NewSystem("eager")
	sysB, _ := NewSystem("hybrid")
	obsA, errA := s.Run(sysA, mech.Retry)
	obsB, errB := s.Run(sysB, mech.WaitPred)
	if errA != nil || errB != nil {
		t.Fatalf("run errors: %v / %v", errA, errB)
	}
	if d := Diff(obsA, obsB); d != nil {
		t.Fatalf("engines observed different state:\n%s", strings.Join(d, "\n"))
	}
}

func TestInjectedFaultIsCaughtAndReproduces(t *testing.T) {
	const seed = 7
	s := Generate(seed, GenConfig{InjectFault: true})
	results := RunScenario(s, []string{"eager"}, mech.Retry)
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if r.Pass {
		t.Fatal("injected fault was not caught")
	}
	if len(r.Diff) == 0 {
		t.Fatalf("fault reported without a diff: %v", r.Err)
	}
	if r.Seed != seed {
		t.Fatalf("failure lost its seed: %d", r.Seed)
	}
	if !strings.Contains(r.String(), "-seed 7") {
		t.Fatalf("failure rendering lacks the replay hint:\n%s", r.String())
	}
	// Replay from the printed seed: the same fault must reproduce with an
	// identical oracle diff (the detection is deterministic, not flaky).
	replay := RunScenario(Generate(seed, GenConfig{InjectFault: true}), []string{"eager"}, mech.Retry)
	if replay[0].Pass || !reflect.DeepEqual(replay[0].Diff, r.Diff) {
		t.Fatalf("replay diff differs:\n%v\nvs\n%v", replay[0].Diff, r.Diff)
	}
}

func TestInjectedFaultCaughtOnEveryEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine × mechanism sweep")
	}
	s := Generate(11, GenConfig{InjectFault: true})
	for _, r := range RunScenario(s, Engines, "") {
		if r.Pass {
			t.Errorf("%s/%s: injected fault not caught", r.Engine, r.Mech)
		}
	}
}

func TestDiffRendering(t *testing.T) {
	want := Observation{"a": "1", "b": "2", "c": "3"}
	got := Observation{"a": "1", "b": "9", "d": "4"}
	d := Diff(want, got)
	if len(d) != 3 {
		t.Fatalf("Diff = %v", d)
	}
	if !strings.Contains(d[0], `b: got "9", oracle says "2"`) {
		t.Errorf("unexpected first line %q", d[0])
	}
	if Diff(want, Observation{"a": "1", "b": "2", "c": "3"}) != nil {
		t.Error("identical observations must diff to nil")
	}
}

func TestParsecScenariosMatchReference(t *testing.T) {
	scens := ParsecScenarios(2, 1)
	if len(scens) != 8 {
		t.Fatalf("registered %d parsec scenarios, want 8", len(scens))
	}
	pick := scens
	if testing.Short() {
		pick = scens[:2]
	}
	for _, s := range pick {
		engines := Engines
		if testing.Short() {
			engines = []string{"lazy"}
		}
		for _, engine := range engines {
			for _, r := range RunScenario(s, []string{engine}, mech.Retry) {
				if !r.Pass {
					t.Errorf("%s", r.String())
				}
			}
		}
	}
}

func TestReportTables(t *testing.T) {
	var rep Report
	s := Generate(3, GenConfig{})
	rep.Add(RunScenario(s, []string{"eager", "htm"}, ""))
	if !rep.AllPassed() {
		for _, f := range rep.Failures() {
			t.Errorf("%s", f.String())
		}
	}
	et := rep.EngineTable()
	if !strings.Contains(et, "eager") || !strings.Contains(et, "htm") || !strings.Contains(et, "abort-rate") {
		t.Errorf("engine table malformed:\n%s", et)
	}
	mt := rep.MechTable()
	if !strings.Contains(mt, "retry") || !strings.Contains(mt, "waitpred") {
		t.Errorf("mech table malformed:\n%s", mt)
	}
}

func TestWorldSnapshotAgainstHandBuiltSpec(t *testing.T) {
	// A tiny hand-built spec with a known answer, run on one engine:
	// guards the oracle and the observation plumbing independently of the
	// generator.
	sp := &spec{
		threads:  2,
		counters: 2,
		bufCap:   2,
		hasMap:   true,
		mapKeys:  2,
		mapCap:   6,
		programs: [][]op{
			{
				{kind: opCounterAdd, a: 0, b: 5},
				{kind: opBufPut, a: encodeVal(0, 1)},
				{kind: opBufPut, a: encodeVal(0, 2)},
				{kind: opMapPut, a: 1, b: 11},
			},
			{
				{kind: opBufGet},
				{kind: opBufGet},
				{kind: opCounterAdd, a: 1, b: 3},
				{kind: opTransfer, a: 1, b: 0, c: 2},
				{kind: opMapPut, a: 2, b: 22},
				{kind: opMapDel, a: 2},
			},
		},
	}
	want := Observation{
		"counter[0]":    "7",
		"counter[1]":    "1",
		"buffer.len":    "0",
		"buffer.tokens": strconv.FormatUint(encodeVal(0, 1)+encodeVal(0, 2), 10),
		"map":           "1:11",
		"map.len":       "1",
	}
	if d := Diff(want, oracle(sp)); d != nil {
		t.Fatalf("oracle wrong:\n%s", strings.Join(d, "\n"))
	}
	sys, _ := NewSystem("lazy")
	got, err := runSpec(sp, sys, mech.Retry)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(want, got); d != nil {
		t.Fatalf("execution deviates:\n%s", strings.Join(d, "\n"))
	}
}

func TestStatsReportedPerRun(t *testing.T) {
	s := Generate(5, GenConfig{})
	rs := RunScenario(s, []string{"eager"}, mech.Retry)
	for _, r := range rs {
		if r.Commits == 0 {
			t.Errorf("%s/%s: no commits recorded", r.Engine, r.Mech)
		}
		if r.AbortRate < 0 || r.AbortRate > 1 {
			t.Errorf("abort rate out of range: %v", r.AbortRate)
		}
	}
}

func TestReplayHintCarriesGeneratorOverrides(t *testing.T) {
	s := Generate(9, GenConfig{Threads: 3, Ops: 30, InjectFault: true})
	rs := RunScenario(s, []string{"eager"}, mech.Retry)
	if len(rs) != 1 || rs[0].Pass {
		t.Fatalf("expected one failing run, got %+v", rs)
	}
	hint := rs[0].String()
	for _, frag := range []string{"-seed 9", "-threads 3", "-ops 30", "-inject"} {
		if !strings.Contains(hint, frag) {
			t.Errorf("replay hint lacks %q:\n%s", frag, hint)
		}
	}
}

func TestEveryThreadHasInjectionTarget(t *testing.T) {
	// injectFault must never be a silent no-op: every generated program
	// carries at least one counter-add per thread.
	for seed := uint64(1); seed <= 50; seed++ {
		sp := Generate(seed, GenConfig{})
		faulted := Generate(seed, GenConfig{InjectFault: true})
		if reflect.DeepEqual(sp.Oracle(), faulted.Oracle()) {
			// Oracles match by construction (fault only affects Run);
			// the real check: the faulted run must fail somewhere.
			rs := RunScenario(faulted, []string{"lazy"}, mech.Retry)
			if rs[0].Pass {
				t.Fatalf("seed %d: injected fault was a no-op", seed)
			}
		}
	}
}
