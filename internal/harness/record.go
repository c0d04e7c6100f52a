package harness

// Trace capture: run a spec-backed scenario once with the recorder
// attached and hand back the event log, stamped with everything needed to
// rebuild the run — seed, generator flags, and the knob configuration in
// the key=value form EncodeKnobs/DecodeKnobs define.

import (
	"fmt"
	"strconv"
	"strings"

	"tmsync/internal/clock"
	"tmsync/internal/mech"
	"tmsync/internal/mono"
	"tmsync/internal/trace"
)

// specWorld renders a spec's geometry as a trace world header. The field
// set matches what the scenario digest covers, so a replayed program
// fingerprints identically to the recorded one.
func specWorld(sp *spec) trace.World {
	return trace.World{
		Threads:  sp.threads,
		Counters: sp.counters,
		BufCap:   sp.bufCap,
		HasQueue: sp.hasQueue,
		HasStack: sp.hasStack,
		HasMap:   sp.hasMap,
		MapKeys:  sp.mapKeys,
		QueueCap: sp.queueCap,
		StackCap: sp.stackCap,
		MapCap:   sp.mapCap,
	}
}

// Record executes s once under engine × m with a trace recorder attached
// and returns the captured trace alongside the run's differential result.
// Only spec-backed scenarios (generated or trace-replayed) can be
// recorded; registered workloads drive their own structures and have no
// op program to log.
func Record(s *Scenario, engine string, m mech.Mechanism, k Knobs) (*trace.Trace, Result, error) {
	if s.sp == nil {
		return nil, Result{}, fmt.Errorf("harness: scenario %s is not spec-backed and cannot be recorded", s.Name)
	}
	res := Result{Scenario: s.Name, Seed: s.Seed, Injected: s.Injected, ReplayArgs: s.ReplayArgs, Engine: engine, Mech: m}
	sys, err := NewSystemKnobs(engine, k)
	if err != nil {
		return nil, Result{}, err
	}
	rec := trace.NewRecorder(s.Name, s.Seed, EncodeKnobs(k), s.ReplayArgs, specWorld(s.sp))
	rec.Attach(sys)
	start := mono.Now()
	obs, runErr := runSpecRec(s.sp, sys, m, rec)
	res.Duration = start.Elapsed()
	st := sys.Stats.Sum()
	res.Commits = st.Commits + st.ROCommits
	res.Aborts = st.Aborts
	res.AbortRate = st.AbortRate()
	if runErr != nil {
		res.Err = runErr
		return rec.Trace(), res, nil
	}
	res.Diff = Diff(s.Oracle(), obs)
	res.Pass = len(res.Diff) == 0
	return rec.Trace(), res, nil
}

// EncodeKnobs renders a knob configuration as the space-separated
// key=value stamp traces carry; zero-valued knobs are omitted, so the
// default configuration encodes as the empty string.
func EncodeKnobs(k Knobs) string {
	var parts []string
	add := func(key, val string) { parts = append(parts, key+"="+val) }
	if k.Stripes != 0 {
		add("stripes", strconv.Itoa(k.Stripes))
	}
	if k.ClockMode != "" {
		add("clock", k.ClockMode)
	}
	return strings.Join(parts, " ")
}

// DecodeKnobs parses the stamp EncodeKnobs writes. Unknown keys are
// errors: a knob this build does not understand cannot be silently
// dropped without changing what configuration the replay runs under.
func DecodeKnobs(s string) (Knobs, error) {
	var k Knobs
	for _, part := range strings.Fields(s) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Knobs{}, fmt.Errorf("malformed knob %q (want key=value)", part)
		}
		key, val := kv[0], kv[1]
		var err error
		switch key {
		case "stripes":
			k.Stripes, err = strconv.Atoi(val)
			if err != nil || k.Stripes < 0 {
				return Knobs{}, fmt.Errorf("knob stripes: %q is not a non-negative integer", val)
			}
		case "clock":
			if _, err = clock.ParseMode(val); err == nil {
				k.ClockMode = val
			}
		default:
			return Knobs{}, fmt.Errorf("unknown knob %q", key)
		}
		if err != nil {
			return Knobs{}, err
		}
	}
	return k, nil
}
