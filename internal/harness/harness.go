// Package harness is the cross-engine differential scenario harness: the
// safety net behind every refactor of the TM engines and condition-
// synchronization mechanisms.
//
// The paper's central claim is interchangeability — Retry, Await,
// WaitPred, TMCondVar, Retry-Orig, and Restart are drop-in replacements
// for one another, over interchangeable TM back ends (eager STM, lazy
// STM, simulated HTM, hybrid). If that holds, any workload must produce
// identical observable state no matter which engine × mechanism pair runs
// it. This package checks exactly that: a Scenario is a deterministic
// concurrent program over shared words and txds structures; the harness
// runs it under every engine × applicable mechanism, snapshots the final
// state, and diffs it — together with aggregate invariants (token
// conservation, per-producer FIFO order, sum conservation) — against a
// sequential oracle computed without any concurrency at all.
//
// Scenarios come from two sources: the randomized generator (Generate),
// which derives the whole program from one printable seed so any failure
// replays from a one-line -seed flag, and the eight PARSEC concurrency
// skeletons of internal/parsecsim (ParsecScenarios). cmd/tmcheck is the
// CLI front end.
package harness

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"tmsync"
	"tmsync/internal/mech"
	"tmsync/internal/tm"
	"tmsync/internal/trace"
)

// Engines names the TM back ends of tmsync.EngineKinds, in its order.
var Engines = func() []string {
	out := make([]string, len(tmsync.EngineKinds))
	for i, k := range tmsync.EngineKinds {
		out[i] = string(k)
	}
	return out
}()

// NewSystem builds the named engine's System, with condition
// synchronization enabled, through tmsync.New.
func NewSystem(engine string) (*tm.System, error) {
	if !slices.Contains(Engines, engine) {
		return nil, fmt.Errorf("harness: unknown engine %q", engine)
	}
	return tmsync.New(tmsync.EngineKind(engine), tm.Config{}).System, nil
}

// Observation is a rendered snapshot of a scenario's observable final
// state: a set of named facts that must be identical across every
// engine × mechanism execution. Keys name state ("counter[2]",
// "queue.len", "map"); values are canonical renderings.
type Observation map[string]string

// Diff returns human-readable lines describing every fact on which got
// deviates from want, sorted by key; nil means identical.
func Diff(want, got Observation) []string {
	keys := make(map[string]struct{}, len(want)+len(got))
	for k := range want {
		keys[k] = struct{}{}
	}
	for k := range got {
		keys[k] = struct{}{}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var out []string
	for _, k := range sorted {
		w, wok := want[k]
		g, gok := got[k]
		switch {
		case !wok:
			out = append(out, fmt.Sprintf("%s: unexpected %q (oracle has no such fact)", k, g))
		case !gok:
			out = append(out, fmt.Sprintf("%s: missing (oracle has %q)", k, w))
		case w != g:
			out = append(out, fmt.Sprintf("%s: got %q, oracle says %q", k, g, w))
		}
	}
	return out
}

// Scenario is one deterministic concurrent program, runnable under any
// engine × mechanism pair, with a sequential oracle for its final state.
type Scenario struct {
	// Name identifies the scenario ("gen-001f" for generated ones,
	// "parsec/dedup" for registered workloads).
	Name string
	// Seed reproduces a generated scenario exactly (0 for registered
	// workloads, which are deterministic by construction).
	Seed uint64
	// Injected marks a scenario carrying a deliberate fault, so replay
	// hints include the -inject flag that recreates it.
	Injected bool
	// ReplayArgs holds the extra tmcheck flags (beyond -seed) needed to
	// regenerate this exact scenario, e.g. "-threads 8 -ops 100" when the
	// generator ran with explicit overrides. Empty when defaults suffice.
	ReplayArgs string
	// Digest fingerprints a generated scenario's complete program (world
	// geometry plus every thread's op sequence). Generator drift — any
	// change that silently re-rolls what a pinned seed covers — changes
	// the digest, which golden-seed regression tests pin. Empty for
	// registered (non-generated) workloads.
	Digest string
	// Threads is the number of concurrent workers the program uses.
	Threads int
	// Mechs lists the mechanisms the scenario can run under on the given
	// engine; defaults to mech.ForEngine when nil.
	Mechs func(engine string) []mech.Mechanism
	// Oracle returns the expected observation, computed sequentially.
	Oracle func() Observation
	// Run executes the program on sys under mechanism m and returns the
	// observed final state. It must return an error for any invariant
	// violation it detects while running (duplicate consumption,
	// per-producer FIFO breaks, wedged workers).
	Run func(sys *tm.System, m mech.Mechanism) (Observation, error)

	// sp is the executed program in spec form, set for spec-backed
	// scenarios (generated or trace-replayed); Record needs it to emit the
	// program-event layer of a trace. Nil for registered workloads, which
	// therefore cannot be recorded.
	sp *spec
}

// Result is the outcome of one engine × mechanism execution.
type Result struct {
	Scenario   string
	Seed       uint64
	Injected   bool
	ReplayArgs string
	Engine     string
	Mech       mech.Mechanism
	Pass       bool
	Diff       []string // oracle mismatches, if any
	Err        error    // invariant violation or wedge, if any
	Duration   time.Duration

	// Aggregate engine counters for the run (fresh system per run).
	Commits   uint64
	Aborts    uint64
	AbortRate float64
}

// Failed reports whether the execution deviated from the oracle.
func (r *Result) Failed() bool { return !r.Pass }

// String renders a one-line verdict, including the seed-replay hint on
// failure.
func (r *Result) String() string {
	if r.Pass {
		return fmt.Sprintf("PASS %s %s/%s", r.Scenario, r.Engine, r.Mech)
	}
	s := fmt.Sprintf("FAIL %s %s/%s", r.Scenario, r.Engine, r.Mech)
	if r.Err != nil {
		s += ": " + r.Err.Error()
	}
	for _, d := range r.Diff {
		s += "\n  " + d
	}
	if r.Seed != 0 {
		s += fmt.Sprintf("\n  reproduce: go run ./cmd/tmcheck -n 1 -seed %d", r.Seed)
		if r.ReplayArgs != "" {
			s += " " + r.ReplayArgs
		}
		if r.Injected {
			s += " -inject"
		}
	}
	return s
}

// RunScenario executes s under each of the given engines × every
// applicable mechanism (only that one, when only is non-empty) and returns
// one Result per pair, each diffed against the sequential oracle.
func RunScenario(s *Scenario, engines []string, only mech.Mechanism) []Result {
	oracle := s.Oracle()
	mechs := s.Mechs
	if mechs == nil {
		mechs = mech.ForEngine
	}
	var out []Result
	for _, engine := range engines {
		for _, m := range mechs(engine) {
			if only != "" && m != only {
				continue
			}
			out = append(out, runOne(s, oracle, engine, m, nil))
		}
	}
	return out
}

// runOne executes s once under engine × m and diffs the outcome against
// oracle. With rec set, s must be spec-backed, and the run is recorded
// into rec.
func runOne(s *Scenario, oracle Observation, engine string, m mech.Mechanism, rec *trace.Recorder) Result {
	res := Result{Scenario: s.Name, Seed: s.Seed, Injected: s.Injected, ReplayArgs: s.ReplayArgs, Engine: engine, Mech: m}
	sys, err := NewSystem(engine)
	if err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	var obs Observation
	if rec != nil {
		rec.Attach(sys)
		obs, err = runSpecRec(s.sp, sys, m, rec)
	} else {
		obs, err = s.Run(sys, m)
	}
	res.Duration = time.Since(start)
	st := sys.Stats.Sum()
	res.Commits = st.Commits + st.ROCommits
	res.Aborts = st.Aborts
	res.AbortRate = st.AbortRate()
	if err != nil {
		res.Err = err
		return res
	}
	res.Diff = Diff(oracle, obs)
	res.Pass = len(res.Diff) == 0
	return res
}
