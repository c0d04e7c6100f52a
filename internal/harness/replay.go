package harness

// Differential replay: reconstruct a runnable scenario from a decoded
// trace. The program layer (begin..commit groups) maps back onto spec
// ops by shape — the exact inverse of world.opEvents — after which the
// scenario runs through the ordinary engine × mechanism sweep against a
// freshly computed sequential oracle. Runtime events (abort/block/wake/
// detach) are commentary about the recorded schedule and are ignored:
// replay re-executes the program, it does not re-enforce a schedule.
//
// Because fixtures may be written by hand, reconstruction also enforces
// the semantic preconditions the oracle's soundness rests on, plus the
// per-structure termination floors: thread-partitioned map keys,
// producer-encoded structure values, takes covered by puts, and capacity
// floors. The decoder cannot check these (they span events). Validation
// is deliberately per-structure: cross-structure ordering — e.g. thread A
// doing buffer-get then queue-put while thread B does queue-take then
// buffer-put, a circular blocking dependency — is NOT checked, because
// deciding that every interleaving terminates is a model-checking
// problem. A hand-written fixture with such a cycle can still deadlock
// at run time; the harness wedge detector (WedgeTimeout in world.go)
// converts that into a reported wedge error rather than a hang.

import (
	"fmt"

	"tmsync/internal/mech"
	"tmsync/internal/tm"
	"tmsync/internal/trace"
)

// ReplayTrace turns a decoded trace back into a runnable scenario.
func ReplayTrace(tr *trace.Trace) (*Scenario, error) {
	sp, err := specFromTrace(tr)
	if err != nil {
		return nil, err
	}
	oracleObs := oracle(sp)
	name := "replay"
	if tr.Source != "" {
		name = "replay-" + tr.Source
	}
	return &Scenario{
		Name:       name,
		Seed:       tr.Seed,
		ReplayArgs: tr.Replay,
		Digest:     sp.digest(),
		Threads:    sp.threads,
		Oracle:     func() Observation { return oracleObs },
		Run: func(sys *tm.System, m mech.Mechanism) (Observation, error) {
			return runSpec(sp, sys, m)
		},
		sp: sp,
	}, nil
}

// specFromTrace rebuilds the spec a trace's program layer describes.
func specFromTrace(tr *trace.Trace) (*spec, error) {
	w := tr.World
	sp := &spec{
		threads:  w.Threads,
		counters: w.Counters,
		bufCap:   w.BufCap,
		hasQueue: w.HasQueue,
		hasStack: w.HasStack,
		hasMap:   w.HasMap,
		mapKeys:  w.MapKeys,
		queueCap: w.QueueCap,
		stackCap: w.StackCap,
		mapCap:   w.MapCap,
	}
	if sp.threads < 1 {
		return nil, fmt.Errorf("trace world has no threads")
	}
	sp.programs = make([][]op, sp.threads)
	open := make([][]trace.Event, sp.threads)
	inTxn := make([]bool, sp.threads)
	for _, ev := range tr.Events {
		if ev.Kind.Runtime() {
			continue
		}
		t := ev.Thread
		if t < 0 || t >= sp.threads {
			return nil, fmt.Errorf("event thread %d out of range [0, %d)", t, sp.threads)
		}
		switch ev.Kind {
		case trace.Begin:
			if inTxn[t] {
				return nil, fmt.Errorf("thread %d: nested begin", t)
			}
			inTxn[t] = true
			open[t] = open[t][:0]
		case trace.Commit:
			if !inTxn[t] {
				return nil, fmt.Errorf("thread %d: commit without begin", t)
			}
			o, err := groupOp(sp, open[t])
			if err != nil {
				return nil, fmt.Errorf("thread %d, op %d: %w", t, len(sp.programs[t])+1, err)
			}
			sp.programs[t] = append(sp.programs[t], o)
			inTxn[t] = false
		default:
			if !inTxn[t] {
				return nil, fmt.Errorf("thread %d: %s outside a transaction", t, ev.Kind)
			}
			open[t] = append(open[t], ev)
		}
	}
	for t, openT := range inTxn {
		if openT {
			return nil, fmt.Errorf("thread %d: trace ends inside an open transaction", t)
		}
	}
	if err := validateSpec(sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// groupOp maps one transaction's payload events onto the spec op whose
// opEvents rendering they are. Shapes that match no op are errors — an
// event sequence the harness cannot execute must not replay silently as
// something else.
func groupOp(sp *spec, evs []trace.Event) (op, error) {
	if len(evs) == 1 {
		e := evs[0]
		switch {
		case e.Kind == trace.Write && e.Obj == trace.Counter && !e.Neg:
			return op{kind: opCounterAdd, a: e.K, b: e.V}, nil
		case e.Kind == trace.Write && e.Obj == trace.Buf:
			return op{kind: opBufPut, a: e.V}, nil
		case e.Kind == trace.Read && e.Obj == trace.Buf:
			return op{kind: opBufGet}, nil
		case e.Kind == trace.Write && e.Obj == trace.Queue:
			return op{kind: opQueuePut, a: e.V}, nil
		case e.Kind == trace.Read && e.Obj == trace.Queue:
			return op{kind: opQueueTake}, nil
		case e.Kind == trace.Write && e.Obj == trace.Stack:
			return op{kind: opStackPush, a: e.V}, nil
		case e.Kind == trace.Read && e.Obj == trace.Stack:
			return op{kind: opStackPop}, nil
		case e.Kind == trace.Write && e.Obj == trace.Map:
			return op{kind: opMapPut, a: e.K, b: e.V}, nil
		case e.Kind == trace.Del && e.Obj == trace.Map:
			return op{kind: opMapDel, a: e.K}, nil
		}
		return op{}, fmt.Errorf("unrecognized single-event transaction (%s %s)", evs[0].Kind, evs[0].Obj)
	}
	// Two counter writes, -d then +d on distinct cells: a transfer.
	if len(evs) == 2 &&
		evs[0].Kind == trace.Write && evs[0].Obj == trace.Counter && evs[0].Neg &&
		evs[1].Kind == trace.Write && evs[1].Obj == trace.Counter && !evs[1].Neg &&
		evs[0].V == evs[1].V && evs[0].K != evs[1].K {
		return op{kind: opTransfer, a: evs[0].K, b: evs[1].K, c: evs[0].V}, nil
	}
	// k counter reads walking (a+j) % counters for j in [1, k], then one
	// positive counter write to a: a read-heavy transaction.
	last := evs[len(evs)-1]
	if len(evs) >= 2 && last.Kind == trace.Write && last.Obj == trace.Counter && !last.Neg {
		a, n := last.K, uint64(sp.counters)
		for j, e := range evs[:len(evs)-1] {
			if e.Kind != trace.Read || e.Obj != trace.Counter || e.K != (a+uint64(j)+1)%n {
				return op{}, fmt.Errorf("unrecognized transaction shape: reads before a counter write must walk (%d+j) %% %d", a, n)
			}
		}
		return op{kind: opReadHeavy, a: a, b: last.V, c: uint64(len(evs) - 1)}, nil
	}
	return op{}, fmt.Errorf("unrecognized %d-event transaction shape", len(evs))
}

// validateSpec enforces the cross-event semantic preconditions replayed
// programs must meet (see the package comment above — per-structure
// totals and floors only; cross-structure blocking cycles are left to
// the run-time wedge detector).
func validateSpec(sp *spec) error {
	// Counter indices feed slice accesses in the oracle and the runner;
	// the decoder bounds them already, but a spec can also arrive from a
	// programmatically built trace, so re-check here as defense in depth.
	for t, prog := range sp.programs {
		for _, o := range prog {
			var bad bool
			switch o.kind {
			case opCounterAdd, opReadHeavy:
				bad = o.a >= uint64(sp.counters)
			case opTransfer:
				bad = o.a >= uint64(sp.counters) || o.b >= uint64(sp.counters)
			}
			if bad {
				return fmt.Errorf("thread %d: counter index out of range [0, %d)", t, sp.counters)
			}
		}
	}
	type structCheck struct {
		name     string
		put      opKind
		take     opKind
		arenaCap int // -1: no arena (the buffer is a fixed ring)
	}
	checks := []structCheck{
		{"buffer", opBufPut, opBufGet, -1},
		{"queue", opQueuePut, opQueueTake, sp.queueCap},
		{"stack", opStackPush, opStackPop, sp.stackCap},
	}
	for _, c := range checks {
		puts, takes := 0, 0
		lastSeq := make([]uint64, sp.threads)
		for t, prog := range sp.programs {
			for _, o := range prog {
				switch o.kind {
				case c.put:
					puts++
					tid, seq := producerSeq(o.a)
					if o.a == 0 || tid != uint64(t) || seq <= lastSeq[t] {
						return fmt.Errorf("%s: thread %d produces value %d; values must encode thread<<24|seq with per-thread strictly ascending seq >= 1 (the conservation and FIFO invariants read them back)", c.name, t, o.a)
					}
					lastSeq[t] = seq
				case c.take:
					takes++
				}
			}
		}
		if takes > puts {
			return fmt.Errorf("%s: %d takes but only %d puts — some consumer would block forever", c.name, takes, puts)
		}
		if c.name == "buffer" && puts-takes > sp.bufCap && sp.bufCap > 0 {
			return fmt.Errorf("buffer: %d values left over exceed capacity %d — the last producers could never commit", puts-takes, sp.bufCap)
		}
		if c.arenaCap >= 0 && puts > c.arenaCap {
			return fmt.Errorf("%s: %d puts exceed arena capacity %d — allocation could block a producer forever", c.name, puts, c.arenaCap)
		}
	}
	owner := map[uint64]int{}
	for t, prog := range sp.programs {
		for _, o := range prog {
			if o.kind != opMapPut && o.kind != opMapDel {
				continue
			}
			if o.a < 1 || o.a > uint64(sp.mapKeys) {
				return fmt.Errorf("map key %d out of range [1, %d]", o.a, sp.mapKeys)
			}
			if prev, ok := owner[o.a]; ok && prev != t {
				return fmt.Errorf("map key %d touched by threads %d and %d; keys must stay thread-partitioned or the oracle's final map is interleaving-dependent", o.a, prev, t)
			}
			owner[o.a] = t
		}
	}
	if len(owner) > sp.mapCap {
		return fmt.Errorf("map: %d distinct keys exceed arena capacity %d", len(owner), sp.mapCap)
	}
	return nil
}
