package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tmsync/internal/buffer"
	"tmsync/internal/condvar"
	"tmsync/internal/core"
	"tmsync/internal/mech"
	"tmsync/internal/mem"
	"tmsync/internal/tm"
	"tmsync/internal/trace"
	"tmsync/internal/txds"
)

// WedgeTimeout bounds one scenario execution; a run that exceeds it is
// reported as wedged (a lost wakeup or deadlock) instead of hanging the
// whole check.
var WedgeTimeout = 60 * time.Second

// opKind enumerates the operations a generated program is built from.
type opKind uint8

const (
	opCounterAdd opKind = iota // counters[a] += b
	opTransfer                 // counters[a] -= c; counters[b] += c (sum-conserving)
	opBufPut                   // bounded-buffer put of value a (blocks while full)
	opBufGet                   // bounded-buffer get (blocks while empty)
	opQueuePut                 // FIFO queue put of value a
	opQueueTake                // FIFO queue take (blocks while empty)
	opStackPush                // stack push of value a
	opStackPop                 // stack pop (blocks while empty)
	opMapPut                   // map[a] = b (keys are thread-partitioned)
	opMapDel                   // delete map[a]
	opReadHeavy                // one long read-mostly transaction: read counters[(a+j)%len] for j in [1, c], then counters[a] += b
)

// op is one step of a thread program. Field meaning depends on kind.
type op struct {
	kind    opKind
	a, b, c uint64
}

// spec is the deterministic description of a generated scenario: the
// world geometry plus one op program per thread. Everything an execution
// or the oracle needs derives from it.
type spec struct {
	threads  int
	counters int
	bufCap   int // 0 = scenario has no bounded buffer
	hasQueue bool
	hasStack bool
	hasMap   bool
	mapKeys  int // distinct keys (thread-partitioned)

	// arena capacities, sized so Alloc never blocks indefinitely
	queueCap, stackCap, mapCap int

	programs [][]op
}

// producerSeq decomposes an encoded structure value into its producing
// thread and per-thread sequence number. Values are tid<<24|seq with seq
// starting at 1, so zero (an uninitialized slot) is never a legal value.
func producerSeq(v uint64) (tid, seq uint64) { return v >> 24, v & (1<<24 - 1) }

func encodeVal(tid int, seq uint64) uint64 { return uint64(tid)<<24 | seq }

// world instantiates a spec's shared state on one TM system, with every
// blocking point dispatched through one condition-synchronization
// mechanism.
type world struct {
	sys *tm.System
	m   mech.Mechanism

	counters *mem.Array
	buf      *buffer.TMBuffer
	queue    *txds.Queue
	stack    *txds.Stack
	mp       *txds.Map

	// TMCondVar representation: producers broadcast on these after
	// un-emptying their structure (the buffer carries its own pair).
	queueCV *condvar.Var
	stackCV *condvar.Var

	queueNotEmpty core.Pred
	stackNotEmpty core.Pred
}

func newWorld(sp *spec, sys *tm.System, m mech.Mechanism) *world {
	w := &world{sys: sys, m: m, counters: mem.NewArray(sp.counters)}
	if sp.bufCap > 0 {
		w.buf = buffer.NewTM(sp.bufCap)
	}
	if sp.hasQueue {
		w.queue = txds.NewQueue(txds.NewArena(sp.queueCap, txds.QueueNodeWords))
		w.queueCV = condvar.New()
		w.queueNotEmpty = func(tx *tm.Tx, _ []uint64) bool { return w.queue.LenTx(tx) > 0 }
	}
	if sp.hasStack {
		w.stack = txds.NewStack(txds.NewArena(sp.stackCap, txds.StackNodeWords))
		w.stackCV = condvar.New()
		w.stackNotEmpty = func(tx *tm.Tx, _ []uint64) bool { return w.stack.LenTx(tx) > 0 }
	}
	if sp.hasMap {
		w.mp = txds.NewMap(txds.NewArena(sp.mapCap, txds.MapNodeWords), 16)
	}
	return w
}

// wait dispatches one blocking point through the world's mechanism. It is
// called inside a transaction whose precondition check failed; addr is
// the word the check read and the enabling writer writes (Await), pred is
// the precondition (WaitPred), cv is the structure's condition variable
// (TMCondVar). All paths unwind the transaction except TMCondVar's Wait,
// which commits it and re-executes the block from the top.
func (w *world) wait(tx *tm.Tx, cv *condvar.Var, pred core.Pred, addr *uint64) {
	switch w.m {
	case mech.TMCondVar:
		cv.Wait(tx)
	case mech.WaitPred:
		core.WaitPred(tx, pred)
	case mech.Await:
		core.Await(tx, addr)
	case mech.Retry:
		core.Retry(tx)
	case mech.RetryOrig:
		core.RetryOrig(tx)
	case mech.Restart:
		tx.Restart()
	default:
		panic("harness: mechanism " + string(w.m) + " is not transactional")
	}
}

func (w *world) queuePut(thr *tm.Thread, v uint64) {
	thr.Atomic(func(tx *tm.Tx) {
		w.queue.PutTx(tx, v)
		if w.m == mech.TMCondVar {
			w.queueCV.Broadcast(tx)
		}
	})
}

func (w *world) queueTake(thr *tm.Thread) uint64 {
	var out uint64
	thr.Atomic(func(tx *tm.Tx) {
		v, ok := w.queue.TryTakeTx(tx)
		if !ok {
			w.wait(tx, w.queueCV, w.queueNotEmpty, w.queue.HeadAddr())
		}
		out = v
	})
	return out
}

func (w *world) stackPush(thr *tm.Thread, v uint64) {
	thr.Atomic(func(tx *tm.Tx) {
		w.stack.PushTx(tx, v)
		if w.m == mech.TMCondVar {
			w.stackCV.Broadcast(tx)
		}
	})
}

func (w *world) stackPop(thr *tm.Thread) uint64 {
	var out uint64
	thr.Atomic(func(tx *tm.Tx) {
		v, ok := w.stack.TryPopTx(tx)
		if !ok {
			w.wait(tx, w.stackCV, w.stackNotEmpty, w.stack.TopAddr())
		}
		out = v
	})
	return out
}

// threadLog records what one thread consumed, for post-run invariant
// checks. Written only by its owning goroutine, read after the join.
type threadLog struct {
	bufGot   []uint64
	queueGot []uint64
	stackGot []uint64
}

func (w *world) runThread(thr *tm.Thread, t int, prog []op, log *threadLog, rec *trace.Recorder) {
	for _, o := range prog {
		switch o.kind {
		case opCounterAdd:
			thr.Atomic(func(tx *tm.Tx) {
				w.counters.Set(tx, int(o.a), w.counters.Get(tx, int(o.a))+o.b)
			})
		case opTransfer:
			thr.Atomic(func(tx *tm.Tx) {
				w.counters.Set(tx, int(o.a), w.counters.Get(tx, int(o.a))-o.c)
				w.counters.Set(tx, int(o.b), w.counters.Get(tx, int(o.b))+o.c)
			})
		case opBufPut:
			w.buf.PutMech(thr, w.m, o.a)
		case opBufGet:
			log.bufGot = append(log.bufGot, w.buf.GetMech(thr, w.m))
		case opQueuePut:
			w.queuePut(thr, o.a)
		case opQueueTake:
			log.queueGot = append(log.queueGot, w.queueTake(thr))
		case opStackPush:
			w.stackPush(thr, o.a)
		case opStackPop:
			log.stackGot = append(log.stackGot, w.stackPop(thr))
		case opMapPut:
			thr.Atomic(func(tx *tm.Tx) { w.mp.PutTx(tx, o.a, o.b) })
		case opMapDel:
			thr.Atomic(func(tx *tm.Tx) { w.mp.DeleteTx(tx, o.a) })
		case opReadHeavy:
			// The read-mostly long transaction: a wide read set over the
			// counter array (stressing validation and wake-scan overlap)
			// whose only effect is one commutative add, so the oracle fact
			// stays interleaving-independent — the reads feed nothing.
			thr.Atomic(func(tx *tm.Tx) {
				n := uint64(w.counters.Len())
				for j := uint64(1); j <= o.c; j++ {
					_ = w.counters.Get(tx, int((o.a+j)%n))
				}
				w.counters.Set(tx, int(o.a), w.counters.Get(tx, int(o.a))+o.b)
			})
		}
		if rec != nil {
			// One group per completed op, emitted after Atomic returns:
			// aborted attempts never duplicate program events, and each
			// thread's groups land in its program order.
			rec.Group(w.opEvents(t, o)...)
		}
	}
}

// opEvents renders one completed op as its begin..commit program-event
// group — the exact inverse of replay's groupOp.
func (w *world) opEvents(t int, o op) []trace.Event {
	begin := trace.Event{Thread: t, Kind: trace.Begin}
	commit := trace.Event{Thread: t, Kind: trace.Commit}
	wrap := func(payload ...trace.Event) []trace.Event {
		out := make([]trace.Event, 0, len(payload)+2)
		out = append(out, begin)
		out = append(out, payload...)
		return append(out, commit)
	}
	switch o.kind {
	case opCounterAdd:
		return wrap(trace.Event{Thread: t, Kind: trace.Write, Obj: trace.Counter, K: o.a, V: o.b})
	case opTransfer:
		return wrap(
			trace.Event{Thread: t, Kind: trace.Write, Obj: trace.Counter, K: o.a, V: o.c, Neg: true},
			trace.Event{Thread: t, Kind: trace.Write, Obj: trace.Counter, K: o.b, V: o.c})
	case opBufPut:
		return wrap(trace.Event{Thread: t, Kind: trace.Write, Obj: trace.Buf, V: o.a})
	case opBufGet:
		return wrap(trace.Event{Thread: t, Kind: trace.Read, Obj: trace.Buf})
	case opQueuePut:
		return wrap(trace.Event{Thread: t, Kind: trace.Write, Obj: trace.Queue, V: o.a})
	case opQueueTake:
		return wrap(trace.Event{Thread: t, Kind: trace.Read, Obj: trace.Queue})
	case opStackPush:
		return wrap(trace.Event{Thread: t, Kind: trace.Write, Obj: trace.Stack, V: o.a})
	case opStackPop:
		return wrap(trace.Event{Thread: t, Kind: trace.Read, Obj: trace.Stack})
	case opMapPut:
		return wrap(trace.Event{Thread: t, Kind: trace.Write, Obj: trace.Map, K: o.a, V: o.b})
	case opMapDel:
		return wrap(trace.Event{Thread: t, Kind: trace.Del, Obj: trace.Map, K: o.a})
	case opReadHeavy:
		n := uint64(w.counters.Len())
		payload := make([]trace.Event, 0, o.c+1)
		for j := uint64(1); j <= o.c; j++ {
			payload = append(payload, trace.Event{Thread: t, Kind: trace.Read, Obj: trace.Counter, K: (o.a + j) % n})
		}
		payload = append(payload, trace.Event{Thread: t, Kind: trace.Write, Obj: trace.Counter, K: o.a, V: o.b})
		return wrap(payload...)
	}
	panic("harness: unknown op kind")
}

// runSpec executes the spec's program concurrently on sys under m,
// checks the interleaving-independent invariants, and returns the final
// observation.
func runSpec(sp *spec, sys *tm.System, m mech.Mechanism) (Observation, error) {
	return runSpecRec(sp, sys, m, nil)
}

// runSpecRec is runSpec with an optional trace recorder: each worker is
// bound to its scenario thread index (so driver runtime events attribute
// correctly) and emits one program-event group per completed op.
func runSpecRec(sp *spec, sys *tm.System, m mech.Mechanism, rec *trace.Recorder) (Observation, error) {
	w := newWorld(sp, sys, m)
	logs := make([]threadLog, sp.threads)
	done := make(chan int, sp.threads)
	for t := 0; t < sp.threads; t++ {
		go func(t int) {
			thr := sys.NewThread()
			if rec != nil {
				rec.Bind(thr, t)
			}
			w.runThread(thr, t, sp.programs[t], &logs[t], rec)
			// Marks the end of the thread's program in a recorded trace.
			thr.Detach()
			done <- t
		}(t)
	}
	deadline := time.After(WedgeTimeout)
	for t := 0; t < sp.threads; t++ {
		select {
		case <-done:
		case <-deadline:
			return nil, fmt.Errorf("wedged: %d of %d threads still blocked after %v (lost wakeup?)", sp.threads-t, sp.threads, WedgeTimeout)
		}
	}
	return w.observe(sp, logs)
}

// observe snapshots the final state, verifies conservation and FIFO
// invariants against the programs, and renders the observation.
func (w *world) observe(sp *spec, logs []threadLog) (Observation, error) {
	obs := Observation{}
	thr := w.sys.NewThread()

	var counters []uint64
	var bufRemaining, queueRemaining, stackRemaining []uint64
	var mapSnap map[uint64]uint64
	thr.Atomic(func(tx *tm.Tx) {
		counters = counters[:0]
		for i := 0; i < w.counters.Len(); i++ {
			counters = append(counters, w.counters.Get(tx, i))
		}
		if w.buf != nil {
			bufRemaining = bufRemaining[:0]
			for n := w.buf.Count(tx); n > 0; n-- {
				bufRemaining = append(bufRemaining, w.buf.Get(tx))
			}
		}
		if w.queue != nil {
			queueRemaining = w.queue.SnapshotTx(tx)
		}
		if w.stack != nil {
			stackRemaining = w.stack.SnapshotTx(tx)
		}
		if w.mp != nil {
			mapSnap = w.mp.SnapshotTx(tx)
		}
	})

	for i, v := range counters {
		obs[fmt.Sprintf("counter[%d]", i)] = fmt.Sprintf("%d", v)
	}

	check := func(structure string, produced []uint64, remaining []uint64, got func(*threadLog) []uint64, fifo bool) error {
		consumed := make([]uint64, 0, len(produced))
		for t := range logs {
			g := got(&logs[t])
			consumed = append(consumed, g...)
			if fifo {
				// Per-producer FIFO: within one consumer's stream, values
				// from any single producer must appear in production order.
				last := map[uint64]uint64{}
				for _, v := range g {
					tid, seq := producerSeq(v)
					if seq <= last[tid] {
						return fmt.Errorf("%s: consumer %d saw producer %d out of order (seq %d after %d)", structure, t, tid, seq, last[tid])
					}
					last[tid] = seq
				}
			}
		}
		all := append(append([]uint64(nil), consumed...), remaining...)
		if err := sameMultiset(structure, produced, all); err != nil {
			return err
		}
		var sum uint64
		for _, v := range produced {
			sum += v
		}
		obs[structure+".len"] = fmt.Sprintf("%d", len(remaining))
		obs[structure+".tokens"] = fmt.Sprintf("%d", sum)
		return nil
	}

	if w.buf != nil {
		if err := check("buffer", producedValues(sp, opBufPut), bufRemaining, func(l *threadLog) []uint64 { return l.bufGot }, true); err != nil {
			return nil, err
		}
	}
	if w.queue != nil {
		if err := check("queue", producedValues(sp, opQueuePut), queueRemaining, func(l *threadLog) []uint64 { return l.queueGot }, true); err != nil {
			return nil, err
		}
	}
	if w.stack != nil {
		// LIFO order is interleaving-dependent; conservation is not.
		if err := check("stack", producedValues(sp, opStackPush), stackRemaining, func(l *threadLog) []uint64 { return l.stackGot }, false); err != nil {
			return nil, err
		}
	}
	if w.mp != nil {
		obs["map"] = renderMap(mapSnap)
		obs["map.len"] = fmt.Sprintf("%d", len(mapSnap))
	}
	return obs, nil
}

// producedValues lists every value the programs feed into one structure.
func producedValues(sp *spec, kind opKind) []uint64 {
	var out []uint64
	for _, prog := range sp.programs {
		for _, o := range prog {
			if o.kind == kind {
				out = append(out, o.a)
			}
		}
	}
	return out
}

// sameMultiset reports whether got is a permutation of want — token
// conservation: every produced value consumed or still present, exactly
// once, nothing invented.
func sameMultiset(structure string, want, got []uint64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d values produced but %d accounted for", structure, len(want), len(got))
	}
	count := make(map[uint64]int, len(want))
	for _, v := range want {
		count[v]++
	}
	for _, v := range got {
		count[v]--
		if count[v] < 0 {
			if v == 0 {
				return fmt.Errorf("%s: observed value 0 (uninitialized slot leaked)", structure)
			}
			tid, seq := producerSeq(v)
			return fmt.Errorf("%s: value %d (producer %d seq %d) observed more times than produced", structure, v, tid, seq)
		}
	}
	return nil
}

func renderMap(m map[uint64]uint64) string {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d:%d", k, m[k])
	}
	return strings.Join(parts, ";")
}

// oracle computes the expected observation sequentially: it replays every
// program thread-major over a plain-Go model. All scenario facts are
// interleaving-independent (counter arithmetic commutes, token sums are
// conserved, map keys are thread-partitioned), so any replay order gives
// the unique answer a correct concurrent execution must reach.
func oracle(sp *spec) Observation {
	obs := Observation{}
	counters := make([]uint64, sp.counters)
	model := map[uint64]uint64{}
	var bufLen, queueLen, stackLen int
	var bufSum, queueSum, stackSum uint64
	for _, prog := range sp.programs {
		for _, o := range prog {
			switch o.kind {
			case opCounterAdd:
				counters[o.a] += o.b
			case opTransfer:
				counters[o.a] -= o.c
				counters[o.b] += o.c
			case opBufPut:
				bufLen++
				bufSum += o.a
			case opBufGet:
				bufLen--
			case opQueuePut:
				queueLen++
				queueSum += o.a
			case opQueueTake:
				queueLen--
			case opStackPush:
				stackLen++
				stackSum += o.a
			case opStackPop:
				stackLen--
			case opMapPut:
				model[o.a] = o.b
			case opMapDel:
				delete(model, o.a)
			case opReadHeavy:
				counters[o.a] += o.b
			}
		}
	}
	for i, v := range counters {
		obs[fmt.Sprintf("counter[%d]", i)] = fmt.Sprintf("%d", v)
	}
	if sp.bufCap > 0 {
		obs["buffer.len"] = fmt.Sprintf("%d", bufLen)
		obs["buffer.tokens"] = fmt.Sprintf("%d", bufSum)
	}
	if sp.hasQueue {
		obs["queue.len"] = fmt.Sprintf("%d", queueLen)
		obs["queue.tokens"] = fmt.Sprintf("%d", queueSum)
	}
	if sp.hasStack {
		obs["stack.len"] = fmt.Sprintf("%d", stackLen)
		obs["stack.tokens"] = fmt.Sprintf("%d", stackSum)
	}
	if sp.hasMap {
		obs["map"] = renderMap(model)
		obs["map.len"] = fmt.Sprintf("%d", len(model))
	}
	return obs
}
