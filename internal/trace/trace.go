// Package trace defines the recorded-trace format of the differential
// harness: an append-only event log that captures one concurrent
// execution — the per-thread programs it ran plus the dynamic control
// transfers the TM driver saw — in a form that replays deterministically
// through every engine × mechanism against the sequential oracle.
//
// A trace has two layers. Program events (begin / read / write / del /
// commit) are emitted by the workload layer once per completed operation,
// in each thread's program order; grouping them begin..commit per thread
// reconstructs the thread programs exactly, which is what makes replay
// possible and the record→replay digest round-trip exact. Runtime events
// (abort / block / wake / detach) are emitted by the tm driver through
// the System.Tracer hook and record what actually happened — which
// attempts aborted, who slept, who woke — as commentary that a replay
// does not re-enforce (scheduling belongs to the engines) but that turns
// a one-off failing run into a readable, committable artifact.
//
// The wire format is line-oriented text (versioned header, one event per
// line, an `end <count>` trailer that detects truncation), so fixtures
// under testdata/ diff cleanly in review. Package harness owns the
// record/replay glue: it maps its scenario ops onto these events and
// reconstructs scenarios from them.
package trace

import (
	"fmt"
	"sync"

	"tmsync/internal/tm"
)

// Version is the trace format version this package reads and writes.
const Version = 1

// Kind enumerates the event vocabulary.
type Kind uint8

const (
	// Begin opens one atomic operation on a thread.
	Begin Kind = iota
	// Read is a transactional read: a blocking take from a structure
	// (buf/q/s) or a counter read inside a read-heavy transaction.
	Read
	// Write is a transactional write: a structure put (with value), a map
	// put (key and value), or a counter delta (signed).
	Write
	// Del removes a map key.
	Del
	// Commit closes the operation opened by Begin.
	Commit
	// Abort records an aborted or restarted attempt (runtime event).
	Abort
	// Block records the thread going to sleep under a condition-
	// synchronization mechanism (runtime event).
	Block
	// Wake records the thread waking from Block (runtime event).
	Wake
	// Detach records thread teardown; it must be the thread's last event.
	Detach
)

var kindNames = [...]string{"begin", "read", "write", "del", "commit", "abort", "block", "wake", "detach"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Runtime reports whether the kind is driver commentary rather than part
// of a thread's program.
func (k Kind) Runtime() bool { return k >= Abort }

// Obj names the shared object a Read/Write/Del event touches.
type Obj uint8

const (
	// None is the object of events that touch nothing (begin, commit,
	// runtime events).
	None Obj = iota
	// Counter is one cell of the shared counter array (K = index).
	Counter
	// Buf is the bounded buffer.
	Buf
	// Queue is the FIFO queue.
	Queue
	// Stack is the LIFO stack.
	Stack
	// Map is the hash map (K = key).
	Map
)

var objNames = [...]string{"", "c", "buf", "q", "s", "m"}

func (o Obj) String() string {
	if int(o) < len(objNames) {
		return objNames[o]
	}
	return fmt.Sprintf("obj(%d)", o)
}

// Event is one log record.
type Event struct {
	// Thread is the scenario-level thread index the event belongs to.
	Thread int
	Kind   Kind
	Obj    Obj
	// K is the counter index or map key.
	K uint64
	// V is the written value, or the counter delta magnitude.
	V uint64
	// Neg marks a negative counter delta (the taking half of a transfer).
	Neg bool
	// Arg annotates runtime events (the abort reason).
	Arg string
}

// World is the shared-state geometry a trace's program runs over. It
// mirrors the differential harness's scenario world and carries every
// field the scenario digest covers, so a reconstructed program fingerprints
// identically to the one that was recorded.
type World struct {
	Threads  int
	Counters int
	BufCap   int // 0 = no bounded buffer
	HasQueue bool
	HasStack bool
	HasMap   bool
	MapKeys  int
	QueueCap int
	StackCap int
	MapCap   int
}

// Trace is one decoded (or under-construction) event log.
type Trace struct {
	Version int
	// Source names where the trace came from ("gen-42", "idle-strand").
	Source string
	// Seed is the generator seed that produced the recorded program, when
	// there was one (0 otherwise).
	Seed uint64
	// Knobs is the performance-knob stamp of the recorded run, in the
	// key=value form package harness encodes; replay runs under the same
	// knobs unless overridden.
	Knobs string
	// Replay carries extra generator flags needed to regenerate the
	// program from Seed (the scenario's ReplayArgs), when any.
	Replay string
	World  World
	Events []Event
}

// AbortReasonName renders a TraceAbort argument for the log.
func AbortReasonName(arg uint64) string {
	switch arg {
	case uint64(tm.AbortConflict):
		return "conflict"
	case uint64(tm.AbortCapacity):
		return "capacity"
	case uint64(tm.AbortSpurious):
		return "spurious"
	case uint64(tm.AbortExplicit):
		return "explicit"
	case tm.TraceRestartArg:
		return "restart"
	}
	return fmt.Sprintf("reason(%d)", arg)
}

// Recorder accumulates one trace from a live run: the workload layer
// appends program-event groups as operations complete, and the tm driver
// appends runtime events through the System.Tracer hook. All methods are
// safe for concurrent use; per-thread event order is append order, which
// for program events is each thread's program order (one group per
// completed op, emitted by the op's own goroutine).
type Recorder struct {
	mu  sync.Mutex
	tr  Trace
	ids map[uint64]int // tm thread ID -> scenario thread index
}

// NewRecorder starts a trace with the given provenance header.
func NewRecorder(source string, seed uint64, knobs, replay string, w World) *Recorder {
	return &Recorder{
		tr:  Trace{Version: Version, Source: source, Seed: seed, Knobs: knobs, Replay: replay, World: w},
		ids: make(map[uint64]int),
	}
}

// Bind associates a tm thread with a scenario thread index, so runtime
// events reported by the driver land on the right program thread. Unbound
// tm threads (the harness's snapshot thread, for instance) are ignored.
func (r *Recorder) Bind(t *tm.Thread, thread int) {
	r.mu.Lock()
	r.ids[t.ID] = thread
	r.mu.Unlock()
}

// Group appends one completed operation's program events atomically, so
// concurrent threads' groups never interleave mid-operation.
func (r *Recorder) Group(evs ...Event) {
	r.mu.Lock()
	r.tr.Events = append(r.tr.Events, evs...)
	r.mu.Unlock()
}

// TraceEvent implements tm.Tracer: runtime events from the driver.
func (r *Recorder) TraceEvent(t *tm.Thread, kind tm.TraceKind, arg uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	thread, ok := r.ids[t.ID]
	if !ok {
		return
	}
	switch kind {
	case tm.TraceAbort:
		r.tr.Events = append(r.tr.Events, Event{Thread: thread, Kind: Abort, Arg: AbortReasonName(arg)})
	case tm.TraceBlock:
		r.tr.Events = append(r.tr.Events, Event{Thread: thread, Kind: Block})
	case tm.TraceWake:
		r.tr.Events = append(r.tr.Events, Event{Thread: thread, Kind: Wake})
	case tm.TraceDetach:
		r.tr.Events = append(r.tr.Events, Event{Thread: thread, Kind: Detach})
	}
}

// Attach installs the recorder as sys's driver tracer. Call before any
// bound thread runs.
func (r *Recorder) Attach(sys *tm.System) { sys.Tracer = r }

// Trace returns the accumulated trace. Call only after the recorded run
// has fully joined.
func (r *Recorder) Trace() *Trace { return &r.tr }
