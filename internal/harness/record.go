package harness

// Trace capture: run a spec-backed scenario once with the recorder
// attached and hand back the event log, stamped with everything needed to
// rebuild the run — seed and generator flags.

import (
	"fmt"

	"tmsync/internal/mech"
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
func Record(s *Scenario, engine string, m mech.Mechanism) (*trace.Trace, Result, error) {
	if s.sp == nil {
		return nil, Result{}, fmt.Errorf("harness: scenario %s is not spec-backed and cannot be recorded", s.Name)
	}
	rec := trace.NewRecorder(s.Name, s.Seed, s.ReplayArgs, specWorld(s.sp))
	res := runOne(s, s.Oracle(), engine, m, rec)
	return rec.Trace(), res, nil
}
