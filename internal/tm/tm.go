// Package tm defines the engine-independent transactional-memory runtime:
// the transaction descriptor (per-thread metadata of Appendix A), the
// Engine interface implemented by the eager STM, lazy STM, simulated HTM
// and hybrid TM, the atomic-execution driver that plays the role of the C
// checkpoint/restore (setjmp/longjmp) machinery using panic/recover, and
// shared services (logical clock, orec table, quiescence, allocation
// pools, statistics).
//
// Condition synchronization (packages core and condvar) layers on top
// through two extension points: the Signal and Punctuation interfaces,
// which end an in-flight attempt — unwound, or committed at the raise
// point — and run a handler before the driver re-executes the body, and
// the System.PostCommit hook, which runs after every writer commit (the
// wakeWaiters call of Algorithm 4). The driver alone commits, unwinds and
// resets an attempt; the layers above never do.
package tm

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"tmsync/internal/clock"
	"tmsync/internal/locktable"
	"tmsync/internal/sem"
	"tmsync/internal/spin"
)

// Mode describes how the current transaction attempt executes.
type Mode uint8

const (
	// ModeSTM is an instrumented software transaction.
	ModeSTM Mode = iota
	// ModeHW is a simulated best-effort hardware transaction: invisible
	// buffered writes, eager conflict aborts, capacity limits, and no
	// escape actions.
	ModeHW
	// ModeSerial is the software fallback mode of the HTM engine: the
	// thread holds the global serial lock, concurrency is suspended, and
	// escape actions (waitset logging, descheduling) are permitted.
	ModeSerial
)

func (m Mode) String() string {
	switch m {
	case ModeSTM:
		return "stm"
	case ModeHW:
		return "hw"
	case ModeSerial:
		return "serial"
	}
	return "unknown"
}

// AbortReason classifies why a transaction attempt aborted.
type AbortReason uint8

const (
	AbortConflict AbortReason = iota
	AbortCapacity
	AbortSpurious
	AbortExplicit
)

// ReadEntry records one transactional read for later validation.
type ReadEntry struct {
	Addr *uint64
	Orec uint32 // orec slot covering Addr
}

// UndoEntry records the pre-write value of a word (eager STM / serial mode).
type UndoEntry struct {
	Addr *uint64
	Old  uint64
}

// AddrVal is an address/value pair; the waitset of Algorithm 5 is a list
// of these, enabling value-based wakeup decisions (immune to silent stores).
type AddrVal struct {
	Addr *uint64
	Val  uint64
}

// WriteEntry is one buffered write in a redo log.
type WriteEntry struct {
	Addr *uint64
	Val  uint64
	Orec uint32
}

// WriteSet is an ordered redo log, used by the lazy STM and the simulated
// HTM. Most write sets are small, so a lookup scans Entries behind a
// one-word address filter; only a set that grows past writeSetScan
// entries builds a map index, rebuilt from Entries each time a set
// crosses that size, so Reset never needs to touch it.
type WriteSet struct {
	Entries []WriteEntry
	filter  uint64          // bit addrBit(a) is set for every buffered a
	index   map[*uint64]int // valid only while len(Entries) > writeSetScan
}

// writeSetScan is the largest write set searched without the map index.
const writeSetScan = 16

// addrBit is addr's bit in a write set's filter: word-aligned addresses
// that differ in their low six word bits never share one.
func addrBit(addr *uint64) uint64 {
	return 1 << (uintptr(unsafe.Pointer(addr)) >> 3 % 64)
}

// find returns addr's position in Entries, or -1.
func (w *WriteSet) find(addr *uint64) int {
	if w.filter&addrBit(addr) == 0 {
		return -1
	}
	if len(w.Entries) > writeSetScan {
		if i, ok := w.index[addr]; ok {
			return i
		}
		return -1
	}
	for i := range w.Entries {
		if w.Entries[i].Addr == addr {
			return i
		}
	}
	return -1
}

// Put buffers a write, overwriting any earlier write to the same address.
func (w *WriteSet) Put(addr *uint64, val uint64, orec uint32) {
	if i := w.find(addr); i >= 0 {
		w.Entries[i].Val = val
		return
	}
	w.filter |= addrBit(addr)
	w.Entries = append(w.Entries, WriteEntry{Addr: addr, Val: val, Orec: orec})
	switch n := len(w.Entries); {
	case n == writeSetScan+1:
		if w.index == nil {
			w.index = make(map[*uint64]int, 4*writeSetScan)
		}
		clear(w.index)
		for i := range w.Entries {
			w.index[w.Entries[i].Addr] = i
		}
	case n > writeSetScan+1:
		w.index[addr] = n - 1
	}
}

// Get returns the buffered value for addr, if any.
func (w *WriteSet) Get(addr *uint64) (uint64, bool) {
	if i := w.find(addr); i >= 0 {
		return w.Entries[i].Val, true
	}
	return 0, false
}

// Len returns the number of distinct buffered addresses.
func (w *WriteSet) Len() int { return len(w.Entries) }

// Reset clears the write set for reuse. A stale index is harmless: it is
// consulted only past writeSetScan entries, and rebuilt on the way there.
func (w *WriteSet) Reset() {
	w.Entries = w.Entries[:0]
	w.filter = 0
}

// Tx is the per-thread transaction descriptor. One descriptor lives in each
// Thread and is reused across attempts; flat (subsumption) nesting is
// handled with the Nesting counter exactly as in Algorithm 9.
type Tx struct {
	Thr *Thread
	Sys *System

	Start   uint64      // logical time of transaction start
	Reads   []ReadEntry // locations read (validation)
	Undo    []UndoEntry // eager/serial: writes to undo
	Redo    WriteSet    // lazy/hw: buffered writes
	Locks   []uint32    // orec slots locked by this transaction
	Waitset []AddrVal   // Retry/Await: address/value pairs observed
	Mallocs [][]uint64  // transactional allocations (undone on abort)
	Frees   [][]uint64  // deferred frees (performed on commit)

	// WriteOrecs holds, once Commit has succeeded, the orec slot of every
	// word the attempt stored to: the lock set (Publish) plus any slot
	// stored through without a lock (NoteWriteOrec). The post-commit
	// wakeup skips a waiter whose waitset shares no slot with it, and the
	// original Retry mechanism (Algorithm 1) intersects it with sleeping
	// transactions' read sets; TestProtocolWriteOrecsCoverWrites holds
	// every engine path to it.
	WriteOrecs []uint32

	// Spare words, the size of a slice: they keep every field below, and
	// so Thread's cache-line plan, at the offsets it was measured with. The
	// wake scan derives the stripes it visits from WriteOrecs.
	_ [3]uint64

	// sigFill counts the bits set in Thr.Sig since it was last cleared
	// (SigAdd, SigReset); BeginSoftware clears a signature only once it is
	// fuller than sigClearFill.
	sigFill uint64

	// SleepRecord is the thread's reusable sleep record, owned and
	// interpreted by the condition-synchronization layer (core's Waiter);
	// tm only keeps it with the descriptor, one per thread.
	SleepRecord unsafe.Pointer

	// A spare word that keeps every field below, and so every Thread
	// field behind the descriptor, at the offset Thread's cache-line plan
	// was measured with. A field added to the descriptor takes it, and a
	// change to the descriptor's size is a layout change: measure it on
	// its own and update TestThreadLayout on purpose rather than padding
	// around it.
	_ uint64

	// OnCommit holds actions deferred until the attempt commits (e.g.
	// condition-variable signals, which must not fire from an attempt
	// that may yet abort). Dropped without running if the attempt aborts.
	OnCommit []func()

	Mode     Mode
	Nesting  int
	Attempts int  // attempts of the current Atomic execution
	IsRetry  bool // Algorithm 5: log address/value pairs on every read
	// WantSoftware forces the next HTM attempt into ModeSerial so that
	// escape actions become available (restart_in_STM of Algorithm 5).
	WantSoftware bool
	// SerialHeld records that this attempt owns the system's serial lock
	// (HTM fallback mode or an irrevocable section); it is released
	// exactly once, by the engine or the driver.
	SerialHeld bool
	// WantIrrevocable asks the driver to re-execute the next attempt as
	// an irrevocable (serialized) transaction, the model for the "relaxed
	// transactions" that perform I/O (§2.4.2).
	WantIrrevocable bool

	// hwReads/hwWrites count words accessed by a hardware transaction for
	// capacity accounting.
	HWReads, HWWrites int

	rng uint64 // per-tx xorshift state (spurious-abort draws)
}

// Rand returns a pseudo-random 64-bit value from the descriptor's private
// xorshift generator.
func (tx *Tx) Rand() uint64 {
	x := tx.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.rng = x
	return x
}

// Read performs a transactional load through the system's engine.
func (tx *Tx) Read(addr *uint64) uint64 { return tx.Sys.Engine.Read(tx, addr) }

// Write performs a transactional store through the system's engine.
func (tx *Tx) Write(addr *uint64, v uint64) { tx.Sys.Engine.Write(tx, addr, v) }

// DidWrite reports whether the current attempt performed any store.
func (tx *Tx) DidWrite() bool {
	return len(tx.Undo) > 0 || tx.Redo.Len() > 0
}

// OldValue returns the pre-transaction value of addr if this transaction
// wrote it (first undo-log entry wins: Algorithm 10 appends on every
// write, so the earliest entry holds the original memory value).
func (tx *Tx) OldValue(addr *uint64) (uint64, bool) {
	for i := range tx.Undo {
		if tx.Undo[i].Addr == addr {
			return tx.Undo[i].Old, true
		}
	}
	return 0, false
}

// NoteWriteOrec records an in-place store to a word covered by orec slot
// idx that the attempt does not lock (the HTM serial fallback, which runs
// alone): the slot joins WriteOrecs, once.
func (tx *Tx) NoteWriteOrec(idx uint32) {
	for _, x := range tx.WriteOrecs {
		if x == idx {
			return
		}
	}
	tx.WriteOrecs = append(tx.WriteOrecs, idx)
}

// LogWait appends an address/value pair to the waitset.
func (tx *Tx) LogWait(addr *uint64, val uint64) {
	tx.Waitset = append(tx.Waitset, AddrVal{Addr: addr, Val: val})
}

// Abort explicitly aborts the current attempt with the given reason. It
// unwinds to the driver, which rolls back and re-executes after backoff.
func (tx *Tx) Abort(reason AbortReason) {
	panic(abortSig{reason: reason})
}

// Restart aborts the current attempt and re-executes immediately, without
// backoff growth. This is the "Restart" baseline of the evaluation: abort
// and immediately re-attempt whenever a precondition does not hold.
func (tx *Tx) Restart() {
	tx.Thr.SlowStat.ExplicitRestarts.Add(1)
	panic(restartSig{})
}

// CommitThen ends the attempt with punctuation p: the driver commits it as
// if the body had returned here, then runs p.Handle (see Punctuation).
func (tx *Tx) CommitThen(p Punctuation) { panic(p) }

// RestartTagged aborts the current attempt and re-executes it with IsRetry
// set, so the engine logs an address/value waitset on every read
// (restart-to-populate of Algorithm 5).
func (tx *Tx) RestartTagged() {
	tx.IsRetry = true
	panic(restartSig{})
}

// RestartSoftware aborts the current attempt and re-executes it in an
// instrumented software mode. Hardware transactions use it when they need
// escape actions (Retry, Await, WaitPred); software engines treat it as a
// plain immediate restart.
func (tx *Tx) RestartSoftware() {
	tx.WantSoftware = true
	panic(restartSig{})
}

// Irrevocable makes the transaction irrevocable: the attempt restarts
// under the system's serial lock with all other transactions drained, so
// its effects — including external I/O — can never be rolled back by a
// conflict. This models the "relaxed transactions" of the C++ Draft TM
// Specification that the paper discusses for dedup's I/O critical
// sections (§2.4.2). Condition synchronization before the I/O remains
// safe; a Retry/Await/WaitPred after this call releases irrevocability
// when it unwinds, so the caller must re-establish its precondition on
// re-execution (as the paper requires, condition synchronization must
// precede the I/O).
func (tx *Tx) Irrevocable() {
	if tx.SerialHeld {
		return
	}
	tx.WantIrrevocable = true
	panic(restartSig{})
}

// Alloc returns a transactionally-allocated block of n words. If the
// transaction aborts the block is automatically returned to the pool; if
// it commits the block survives.
func (tx *Tx) Alloc(n int) []uint64 {
	b := tx.Sys.pool.get(n)
	tx.Mallocs = append(tx.Mallocs, b)
	return b
}

// Free defers the reclamation of block b until the transaction commits; an
// abort drops the deferral, matching the malloc/free protocol of Appendix A.
func (tx *Tx) Free(b []uint64) {
	tx.Frees = append(tx.Frees, b)
}

// resetAfterAttempt clears per-attempt state. If committed, deferred frees
// are finalized and allocations survive; otherwise allocations are undone
// and deferred frees dropped.
func (tx *Tx) resetAfterAttempt(committed bool) {
	if committed {
		for _, b := range tx.Frees {
			tx.Sys.pool.put(b)
		}
	} else {
		for _, b := range tx.Mallocs {
			tx.Sys.pool.put(b)
		}
	}
	tx.Reads = tx.Reads[:0]
	tx.Undo = tx.Undo[:0]
	tx.Redo.Reset()
	tx.Locks = tx.Locks[:0]
	tx.Mallocs = tx.Mallocs[:0]
	tx.Frees = tx.Frees[:0]
	tx.WriteOrecs = tx.WriteOrecs[:0]
	tx.OnCommit = tx.OnCommit[:0]
	tx.HWReads, tx.HWWrites = 0, 0
}

// ResetWaitset lazily clears the waitset (Algorithm 5 resets it lazily).
func (tx *Tx) ResetWaitset() { tx.Waitset = tx.Waitset[:0] }

// Engine is implemented by each TM back end.
type Engine interface {
	// Name identifies the engine ("eager", "lazy", "htm", "hybrid").
	Name() string
	// Begin prepares a new attempt (samples the clock, chooses the mode).
	Begin(tx *Tx)
	// Read performs an instrumented load; it may Abort.
	Read(tx *Tx, addr *uint64) uint64
	// Write performs an instrumented store; it may Abort.
	Write(tx *Tx, addr *uint64, v uint64)
	// Commit attempts to commit the attempt; it may Abort. On return the
	// transaction's effects are durable.
	Commit(tx *Tx)
	// Rollback undoes all speculative effects and releases all locks and
	// engine resources held by the attempt, leaving memory as if the
	// transaction never ran. The driver never calls it on an attempt whose
	// Commit returned. It must tolerate being called after AwaitSnapshot
	// has already applied the undo log.
	Rollback(tx *Tx)
	// AwaitSnapshot implements the tricky step of Algorithm 6. The caller
	// has logged the awaited addresses into tx.Waitset, values unset; the
	// engine undoes this transaction's writes (holding locks where it
	// requires them), then sets each entry's Val to its address's
	// committed value, read consistently with the transaction. It may
	// Abort.
	AwaitSnapshot(tx *Tx)
}

// Signal is a control transfer raised inside a transaction body (by
// panicking with a value implementing it). The driver rolls the attempt
// back, runs Handle — typically a sleep until a wakeup condition holds —
// and re-executes the body at once, from its checkpoint with fresh
// scheduling state (Algorithm 4). This is the mechanism package core uses
// to implement Deschedule, Retry, Await and WaitPred without tm depending
// on it. Handle may run transactions of its own on tx's thread.
type Signal interface {
	Handle(tx *Tx)
}

// Punctuation is a Signal raised through Tx.CommitThen: the driver commits
// the attempt at the raise point, through the same epilogue a returning
// body takes, and then runs Handle. If that commit aborts, the driver runs
// Withdraw instead of Handle and takes the ordinary abort path. The
// condition-variable wait of package condvar is one.
type Punctuation interface {
	Signal
	Withdraw()
}

type abortSig struct{ reason AbortReason }

type restartSig struct{}

// TraceKind classifies one driver-level execution event reported to the
// System.Tracer hook: the control transfers a transaction attempt can take
// that are invisible to the workload itself. Committed work is not
// reported here — a recorder sees committed operations at the workload
// layer (where they have names), and the driver adds the dynamic events
// only it can see.
type TraceKind uint8

const (
	// TraceAbort reports an aborted attempt; the argument is the
	// AbortReason, or TraceRestartArg for an explicit driver restart.
	TraceAbort TraceKind = iota
	// TraceBlock reports that a condition-synchronization Signal is about
	// to put the thread to sleep (the attempt has been rolled back, or a
	// Punctuation has committed it).
	TraceBlock
	// TraceWake reports that the Signal handler returned and the thread is
	// about to re-execute its transaction body.
	TraceWake
	// TraceDetach reports Thread.Detach: the thread finished its program.
	TraceDetach
)

// TraceRestartArg is the TraceAbort argument distinguishing an explicit
// restart (Tx.Restart and friends) from the enumerated AbortReasons.
const TraceRestartArg = uint64(AbortExplicit) + 1

// Tracer receives driver-level execution events (recorded-trace capture).
// Like PostCommit/WakeLatency it is a nil-checked hook on
// System, installed before any thread runs and never changed afterwards;
// implementations must be safe for concurrent use — events arrive from
// every transacting goroutine.
type Tracer interface {
	TraceEvent(t *Thread, kind TraceKind, arg uint64)
}

// StatShard is the hot half of one thread's statistics: the counters a
// transaction's common path advances (commit, conflict abort, serial
// fallback, sleep and wake, post-commit wake scan). Only the owning thread
// writes it, so counting costs no cache-line transfer; Stats.Sum adds the
// shards up. Its eight counters fill exactly the cache line Thread gives
// them (TestThreadLayout pins it).
type StatShard struct {
	Commits        atomic.Uint64
	ROCommits      atomic.Uint64
	ConflictAborts atomic.Uint64
	Serializations atomic.Uint64
	Deschedules    atomic.Uint64
	Wakeups        atomic.Uint64

	// WakeChecks counts sleeping waiters a post-commit wakeup scan
	// examined: the waiters on the write set's stripes that sleep on an
	// orec it shares — a predicate evaluated, or a Retry-Orig sleeper
	// claimed — plus every waiter without a waitset (WaitPred).
	WakeChecks atomic.Uint64

	// BatchedSignals counts semaphore signals delivered through the
	// per-commit wakeup batch: claims accumulated during the post-commit
	// scan and issued together after the last shard lock is released
	// (the per-commit form of Algorithm 4's deferred semaphore
	// operations).
	BatchedSignals atomic.Uint64
}

// SlowStatShard is the other half: counters advanced only where a thread
// is already off the fast path (a rare abort kind, an explicit restart).
// Thread keeps it apart from StatShard because it is cold enough to share
// lines with read-only fields; see Thread.
type SlowStatShard struct {
	CapacityAborts   atomic.Uint64
	SpuriousAborts   atomic.Uint64
	ExplicitAborts   atomic.Uint64
	ExplicitRestarts atomic.Uint64
}

// Counters is a plain-value sum of every thread's StatShard and
// SlowStatShard, as returned by Stats.Sum.
type Counters struct {
	Commits, ROCommits uint64
	// Aborts is the sum of the four per-reason counts below.
	Aborts                                                         uint64
	ConflictAborts, CapacityAborts, SpuriousAborts, ExplicitAborts uint64
	ExplicitRestarts, Serializations                               uint64
	Deschedules, Wakeups                                           uint64
	WakeChecks, BatchedSignals                                     uint64
}

// Attempts returns the total number of finished transaction attempts
// (commits, read-only commits, and aborts).
func (c Counters) Attempts() uint64 { return c.Commits + c.ROCommits + c.Aborts }

// AbortRate returns the fraction of attempts that aborted, in [0, 1].
// The differential harness reports it per engine × mechanism.
func (c Counters) AbortRate() float64 {
	n := c.Attempts()
	if n == 0 {
		return 0
	}
	return float64(c.Aborts) / float64(n)
}

// Stats is a System's statistics. The counters transactions advance live
// in per-thread shards (Thread.Stat, Thread.SlowStat) and are read through
// Sum or Snapshot; only the commit clock's failed CASes are counted here
// directly.
type Stats struct {
	sys *System

	// clockCASRetries counts failed CASes on the commit-clock word
	// (AtLeast collisions). The clock reports its advances off the word
	// itself, one per writer commit and rollback. Snapshot's
	// clock_advances and clock_cas_retries make commit-clock cache-line
	// traffic observable per run instead of merely inferable from
	// throughput.
	clockCASRetries atomic.Uint64
}

// Sum adds up the per-thread shards. It may run while threads transact:
// every counter only grows and is read atomically, so each total is
// exact for some moment between the call and its return and never falls
// from one call to the next; different totals may be a few events apart.
func (s *Stats) Sum() Counters {
	var c Counters
	for _, t := range s.sys.Threads() {
		h, sl := &t.Stat, &t.SlowStat
		c.Commits += h.Commits.Load()
		c.ROCommits += h.ROCommits.Load()
		c.ConflictAborts += h.ConflictAborts.Load()
		c.Serializations += h.Serializations.Load()
		c.WakeChecks += h.WakeChecks.Load()
		c.BatchedSignals += h.BatchedSignals.Load()
		c.Deschedules += h.Deschedules.Load()
		c.Wakeups += h.Wakeups.Load()
		c.CapacityAborts += sl.CapacityAborts.Load()
		c.SpuriousAborts += sl.SpuriousAborts.Load()
		c.ExplicitAborts += sl.ExplicitAborts.Load()
		c.ExplicitRestarts += sl.ExplicitRestarts.Load()
	}
	c.Aborts = c.ConflictAborts + c.CapacityAborts + c.SpuriousAborts + c.ExplicitAborts
	return c
}

// Snapshot returns a plain-value copy of every counter by name: the sums
// of the per-thread shards and the clock word's traffic. futile_wakeups
// is kept for the benchmark's ratio; no code path counts one, so it
// reads 0.
func (s *Stats) Snapshot() map[string]uint64 {
	c := s.Sum()
	return map[string]uint64{
		"commits":           c.Commits,
		"ro_commits":        c.ROCommits,
		"aborts":            c.Aborts,
		"conflict_aborts":   c.ConflictAborts,
		"capacity_aborts":   c.CapacityAborts,
		"spurious_aborts":   c.SpuriousAborts,
		"explicit_aborts":   c.ExplicitAborts,
		"explicit_restarts": c.ExplicitRestarts,
		"deschedules":       c.Deschedules,
		"wakeups":           c.Wakeups,
		"futile_wakeups":    0,
		"serializations":    c.Serializations,
		"wake_checks":       c.WakeChecks,
		"batched_signals":   c.BatchedSignals,
		"clock_advances":    s.sys.Clock.Advances(),
		"clock_cas_retries": s.clockCASRetries.Load(),
	}
}

// Config selects system-wide parameters. The orec table is not one of
// them: every System gets locktable.New(locktable.DefaultSize).
type Config struct {
	// HTMReadCap is a simulation parameter: the simulated hardware read
	// set's capacity, in words (0 selects 4096).
	HTMReadCap int
	// HTMWriteCap is a simulation parameter: the simulated hardware write
	// set's capacity, in words (0 selects 448).
	HTMWriteCap int
	// HTMSpuriousAbortPerMille is a fault-injection parameter: simulated
	// spurious hardware aborts with probability n/1000 per access.
	HTMSpuriousAbortPerMille int
	// HTMMaxRetries is a simulation parameter: hardware attempts before the
	// engine serializes on the global lock (GCC uses 2; 0 selects that
	// default, a negative value never tries hardware).
	HTMMaxRetries int
}

func (c Config) withDefaults() Config {
	// Reject malformed values here, at system construction, with tm's own
	// message.
	nonNeg := func(name string, v int) {
		if v < 0 {
			panic(fmt.Sprintf("tm: %s %d is negative", name, v))
		}
	}
	nonNeg("HTMReadCap", c.HTMReadCap)
	nonNeg("HTMWriteCap", c.HTMWriteCap)
	nonNeg("HTMSpuriousAbortPerMille", c.HTMSpuriousAbortPerMille)
	if c.HTMReadCap == 0 {
		c.HTMReadCap = 4096
	}
	if c.HTMWriteCap == 0 {
		c.HTMWriteCap = 448
	}
	if c.HTMMaxRetries == 0 {
		c.HTMMaxRetries = 2
	}
	return c
}

// System owns one TM instance: an engine plus the shared metadata every
// engine needs. Distinct Systems are fully independent.
type System struct {
	Engine Engine
	Clock  clock.Source // always clock.Global's protocol
	Table  *locktable.Table
	Cfg    Config
	Stats  Stats

	// PostCommit, if set, runs on the committing thread after every
	// writer commit (wakeWaiters of Algorithm 4). It is not re-entered
	// for commits performed inside the hook itself.
	//
	// writeOrecs is the committed attempt's write orecs (Tx.WriteOrecs),
	// captured by the driver before any OnCommit callback or nested
	// transaction could overwrite per-thread state. The hook must treat
	// the slice as read-only and must not retain it past its return: the
	// driver recycles the backing array for the thread's next commit.
	PostCommit func(t *Thread, writeOrecs []uint32)

	// Tracer, if set, receives driver-level execution events — aborts,
	// restarts, condition-synchronization blocks and wakes, and thread
	// detach — for recorded-trace capture (internal/trace). The hot commit
	// path is untouched: committed operations are recorded by the workload
	// layer, which knows their names; the driver reports only the control
	// transfers invisible to it. Nil outside recording runs, so every
	// emission site pays one predictable branch.
	Tracer Tracer

	// WakeLatency, if set, receives the sleep-to-signal duration of every
	// semaphore sleep — Deschedule, Retry-Orig, and condition-variable
	// waits: the time from the waiter parking on its semaphore to the
	// signal releasing it. Installed by measurement harnesses (benchmark/)
	// before any thread runs and never changed afterwards;
	// nil outside benchmarks, so the sleep paths pay one predictable
	// branch. The callback runs on the woken thread and must be safe for
	// concurrent use.
	WakeLatency func(d time.Duration)

	// Ext points at the condition-synchronization layer (package core)
	// when one is enabled; tm itself never inspects it.
	Ext any

	// SerialActive is the global serialization lock used by the HTM
	// engine's fallback path and by irrevocable sections, and the flag
	// every beginning attempt polls: 1 while a serial section is being
	// established or runs (EnterSerial / ExitSerialIfHeld).
	SerialActive atomic.Int32

	// threads is the registered-thread list, published copy-on-write:
	// NewThread (serialized by mu) stores the new element first and a
	// header covering it second, so a reader walks whatever header it
	// loaded in place, with no lock and no copy. The thread with ID i is
	// element i-1.
	mu      spin.Lock
	threads atomic.Pointer[[]*Thread]

	pool blockPool

	// HWLayer is set by the engines that run simulated hardware attempts
	// (htm, hybrid) when they are constructed: every committer on such a
	// system invalidates overlapping hardware readers as it writes back.
	HWLayer bool

	// live is the live set: bit ID-1 is set while the thread may have an
	// attempt in flight. The driver sets a thread's bit before its first
	// attempt after registration, a wake or a Detach (Thread.list), and
	// SemWait and Detach clear it (Thread.unlist). The walks that poll
	// other threads — Quiesce, doomHWReaders and EnterSerial's drain —
	// visit only set bits, so a parked thread costs a commit nothing.
	// The pad keeps the words, written on every park and wake, off the
	// line of the fields every attempt reads.
	_    [64]byte
	live [(locktable.MaxOwner + 63) / 64]atomic.Uint64
}

// NewSystem creates a System around the given engine factory. Engines are
// constructed by their packages via a func(*System) Engine so that they can
// capture the system's clock and table.
func NewSystem(cfg Config, mk func(*System) Engine) *System {
	cfg = cfg.withDefaults()
	s := &System{Cfg: cfg, Table: locktable.New(locktable.DefaultSize)}
	s.Stats.sys = s
	s.Clock = clock.New(clock.Global, &s.Stats.clockCASRetries, nil)
	s.pool.init()
	s.Engine = mk(s)
	return s
}

// SemWait parks t, the calling goroutine's thread, on sm, reporting the
// sleep-to-signal duration to the WakeLatency hook when one is installed.
// Every condition-synchronization sleep (deschedule, Retry-Orig, condition-
// variable wait) funnels through it so latency instrumentation covers all
// sleep sites uniformly. t must have no attempt in flight: SemWait takes
// it out of the live set before it sleeps, so no committer polls it while
// it is parked, and its next attempt puts it back.
func (s *System) SemWait(t *Thread, sm *sem.Sem) {
	t.unlist()
	if fn := s.WakeLatency; fn != nil {
		t0 := time.Now()
		sm.Wait()
		fn(time.Since(t0))
		return
	}
	sm.Wait()
}

// Threads returns the threads registered with the system so far, in
// registration order. The slice is the live list, not a copy: it only
// grows and its entries never change, so callers walk it in place and must
// not modify it. A thread registered during the walk may be missing; it
// has not begun a transaction the caller could have had to wait for (see
// BeginHW and PublishStartSerialAware for serial sections, Quiesce for
// privatization). Threads()[i].ID is i+1, so the walks that poll other
// threads index it by the live set's bits and visit no parked thread;
// Stats.Sum walks every entry.
func (s *System) Threads() []*Thread {
	if l := s.threads.Load(); l != nil {
		return slices.Clip(*l)
	}
	return nil
}

// Thread is the per-worker handle. Each goroutine that executes
// transactions must own exactly one Thread, created with NewThread.
//
// The field order is the cache-line plan. A Thread is larger than 512
// bytes and holds pointers, so Go allocates it with an 8-byte header in
// front, in slots of the 704-byte size class — eleven lines — that follow
// one another: a field at offset x sits at x+8 in its slot, and a line's
// neighbour in the adjacent-line pair a remote read also pulls in may be
// the line before or the line after, depending on the slot. Four blocks:
//
//   - the descriptor and the contention back-off, written by the owner
//     during an attempt and read by nobody else;
//   - the polled block, starting a line: fields other threads read
//     (Quiesce reads ActiveStart and Sig; hardware-layer committers
//     read HWActive and Sig and write Doomed; EnterSerial reads
//     HWActive and ActiveStart and writes Doomed);
//   - the quiet block: fields that are fixed once NewThread returns or
//     change only where the thread is off the fast path anyway. It fills
//     the rest of the polled block's last line and the two lines after it,
//     which keeps the owner block below out of every adjacent-line pair a
//     remote poll pulls in: with per-commit scratch there, the `private`
//     workload of benchmark/ loses 5–8 % throughput and 9–15 % p90 on
//     every engine;
//   - the owner block: what the owner writes on every commit — the hot
//     stat shard on one line, the wake-scan scratch on the next — and
//     listed, which every attempt reads and only a park or a wake writes.
//
// With the header the struct must stay within 696 bytes to keep its size
// class; the next one, 768, costs the `sleepers` workload of benchmark/
// 4–7 % of its live heap. internal/tm's layout test pins all of this.
type Thread struct {
	Tx      Tx
	backoff spin.Backoff

	// ActiveStart publishes the start time of an in-flight attempt for
	// quiescence (0 = no attempt in flight).
	ActiveStart atomic.Uint64

	// Simulated-HTM state: a read/write signature for eager conflict
	// detection, an active flag, and a doomed flag set by conflicting
	// committers (the cache-invalidation abort of best-effort HTM).
	HWActive atomic.Bool
	Doomed   atomic.Bool
	Sig      [SigWords]atomic.Uint64

	ID       uint64
	Sys      *System
	Sem      *sem.Sem
	SlowStat SlowStatShard
	_        [56]byte

	// Stat starts the owner block on a line of its own.
	Stat StatShard

	// postOrecs is the scratch buffer the driver copies a committed
	// attempt's write orecs into before handing them to the PostCommit
	// hook. It is swapped out (set nil) for the duration of the deferred
	// OnCommit callbacks and the hook itself, so a callback that commits
	// its own transaction on this thread allocates a fresh buffer instead
	// of clobbering the capture the outer commit's wake scan is about to
	// use.
	postOrecs    []uint32
	inPostCommit bool

	// listed mirrors the thread's bit in the system's live set. Only the
	// owner reads or writes it, so an attempt of a listed thread pays a
	// plain load for the live set.
	listed bool
}

// SigWords is the size of the simulated hardware signature (512 bits).
const SigWords = 8

// NewThread registers a new worker with the system. Its ID is its
// position in Threads() plus one.
func (s *System) NewThread() *Thread {
	t := &Thread{Sys: s, Sem: sem.New()}
	t.Tx.Thr = t
	t.Tx.Sys = s
	s.mu.Lock()
	// append writes the new element past every published header's length
	// (or into a fresh, geometrically larger array), so no reader can
	// observe it before the header that covers it is stored.
	var l []*Thread
	if cur := s.threads.Load(); cur != nil {
		l = *cur
	}
	id := uint64(len(l)) + 1
	if id > locktable.MaxOwner {
		s.mu.Unlock()
		panic("tm: thread id space exhausted")
	}
	t.ID = id
	t.Tx.rng = id*0x9e3779b97f4a7c15 + 1
	l = append(l, t)
	s.threads.Store(&l)
	s.mu.Unlock()
	return t
}

// Detach marks the end of the thread's program: it reports TraceDetach to
// the system's Tracer, so a recorded run shows where each worker stopped,
// and takes the thread out of the live set, so a detached thread costs a
// commit nothing. Nil-safe (the Pthreads baseline carries nil thread
// handles); the thread stays registered and may keep running transactions
// afterwards, its next attempt putting it back in the live set. Call it
// from the thread's own goroutine; inside a transaction it only traces.
func (t *Thread) Detach() {
	if t == nil {
		return
	}
	if !t.InTx() {
		t.unlist()
	}
	t.traceEvent(TraceDetach, 0)
}

// list puts the thread in the live set. The driver calls it before every
// attempt, ahead of anything that publishes the attempt (HWActive,
// ActiveStart) or starts a serial section, so a walk that loads the bit
// clear loaded it before that publication; see Quiesce and EnterSerial.
// Owner only.
func (t *Thread) list() {
	if !t.listed {
		t.listed = true
		t.Sys.live[(t.ID-1)/64].Or(1 << ((t.ID - 1) % 64))
	}
}

// unlist takes the thread out of the live set. Owner only, with no
// attempt in flight.
func (t *Thread) unlist() {
	if t.listed {
		t.listed = false
		t.Sys.live[(t.ID-1)/64].And(^(1 << ((t.ID - 1) % 64)))
	}
}

// traceEvent reports one driver-level event to the system's Tracer hook;
// the common untraced case is one load and a branch.
func (t *Thread) traceEvent(kind TraceKind, arg uint64) {
	if tr := t.Sys.Tracer; tr != nil {
		tr.TraceEvent(t, kind, arg)
	}
}

// sigClearFill is how full a software attempt lets its thread's signature
// grow before BeginSoftware clears it: a quarter of its bits, so a stale
// bit costs a committer a false wait on at most one write orec in four.
const sigClearFill = SigWords * 64 / 4

// SigReset clears the signature, storing only the words that are not
// already zero.
func (t *Thread) SigReset() {
	for i := range t.Sig {
		if t.Sig[i].Load() != 0 {
			t.Sig[i].Store(0)
		}
	}
	t.Tx.sigFill = 0
}

// SigAdd marks orec slot idx in the signature. Only the owner writes its
// signature, so a bit already set costs a load and nothing else.
func (t *Thread) SigAdd(idx uint32) {
	b := idx % (SigWords * 64)
	w, bit := &t.Sig[b/64], uint64(1)<<(b%64)
	if w.Load()&bit == 0 {
		w.Or(bit)
		t.Tx.sigFill++
	}
}

// SigMightContain reports whether orec slot idx may be in the signature.
func (t *Thread) SigMightContain(idx uint32) bool {
	b := idx % (SigWords * 64)
	return t.Sig[b/64].Load()&(1<<(b%64)) != 0
}

// sigMask is the signature of a set of orec slots.
func sigMask(orecs []uint32) (m [SigWords]uint64) {
	for _, idx := range orecs {
		b := idx % (SigWords * 64)
		m[b/64] |= 1 << (b % 64)
	}
	return m
}

// sigMayIntersect reports whether the signature may share a slot with m.
func (t *Thread) sigMayIntersect(m *[SigWords]uint64) bool {
	for i := range m {
		if m[i] != 0 && t.Sig[i].Load()&m[i] != 0 {
			return true
		}
	}
	return false
}

// Atomic executes fn as a transaction, retrying on conflicts and handling
// condition-synchronization signals until fn commits. Nested calls flatten
// into the outer transaction (subsumption nesting). fn must be safe to
// re-execute: all its effects on shared state must go through tx.
func (t *Thread) Atomic(fn func(tx *Tx)) {
	tx := &t.Tx
	if tx.Nesting > 0 {
		tx.Nesting++
		// The decrement must survive control-transfer panics so that the
		// outer driver sees a consistent depth when it re-executes.
		defer func() { tx.Nesting-- }()
		fn(tx)
		return
	}
	tx.Attempts = 0
	tx.IsRetry = false
	tx.ResetWaitset()
	t.backoff.Reset()
	for {
		res := t.attempt(tx, fn)
		if res.kind == attemptPunctuation {
			p := res.sig.(Punctuation)
			if res = t.commitPunctuation(tx, p); res.kind != attemptCommitted {
				p.Withdraw()
			}
		}
		switch res.kind {
		case attemptCommitted:
			if res.sig == nil {
				return
			}
			t.handle(tx, res.sig, nil)
		case attemptAborted:
			t.unwind(tx)
			t.recordAbort(res.reason)
			t.traceEvent(TraceAbort, uint64(res.reason))
			t.backoff.Wait()
		case attemptRestart:
			t.unwind(tx)
			t.traceEvent(TraceAbort, TraceRestartArg)
			// Immediate re-execution; the Restart baseline relies on the
			// lack of backoff growth here. A bare processor yield is still
			// required: without it a respinning reader starves the writer
			// that would establish its precondition whenever goroutines
			// outnumber cores (worst on a single-core box, where each
			// respin burned a whole preemption quantum).
			spinYield()
		case attemptSignal:
			// The handler's waitset may name the attempt's allocations
			// (captured memory, Algorithm 6): they are freed only after it.
			mallocs := tx.Mallocs
			tx.Mallocs = nil
			t.unwind(tx)
			t.handle(tx, res.sig, mallocs)
		}
	}
}

type attemptKind int

const (
	attemptCommitted attemptKind = iota
	attemptAborted
	attemptRestart
	attemptSignal
	attemptPunctuation
)

// attemptResult is how an attempt ended. A committed result carries the
// Punctuation it committed for, if any.
type attemptResult struct {
	kind   attemptKind
	reason AbortReason
	sig    Signal
}

func (t *Thread) attempt(tx *Tx, fn func(tx *Tx)) (res attemptResult) {
	defer t.caught(tx, &res)
	tx.Attempts++
	tx.Nesting = 1
	t.list()
	if tx.IsRetry {
		// A fresh tagged attempt rebuilds the waitset from scratch; stale
		// pairs from an aborted attempt would cause futile wakeups.
		tx.ResetWaitset()
	}
	if tx.WantIrrevocable {
		// Irrevocable attempt: run under system-wide exclusivity so the
		// transaction's effects (including I/O) can never be rolled back
		// by a conflict.
		tx.WantIrrevocable = false
		t.Sys.EnterSerial(t)
		tx.SerialHeld = true
		t.Stat.Serializations.Add(1)
	}
	t.Sys.Engine.Begin(tx)
	fn(tx)
	t.commit(tx)
	return attemptResult{kind: attemptCommitted}
}

// commitPunctuation commits the attempt whose body raised p through
// CommitThen, at the raise point.
func (t *Thread) commitPunctuation(tx *Tx, p Punctuation) (res attemptResult) {
	defer t.caught(tx, &res)
	t.commit(tx)
	return attemptResult{kind: attemptCommitted, sig: p}
}

// caught classifies the control transfer that ended an attempt, if any. A
// genuine (user) panic propagates, unwinding the attempt first if it has
// not committed, so no lock leaks.
func (t *Thread) caught(tx *Tx, res *attemptResult) {
	r := recover()
	if r == nil {
		return
	}
	switch s := r.(type) {
	case abortSig:
		*res = attemptResult{kind: attemptAborted, reason: s.reason}
	case restartSig:
		*res = attemptResult{kind: attemptRestart}
	case Punctuation:
		*res = attemptResult{kind: attemptPunctuation, sig: s}
	case Signal:
		*res = attemptResult{kind: attemptSignal, sig: s}
	default:
		if t.InTx() {
			t.unwind(tx)
		}
		panic(r)
	}
}

// commit commits the attempt and runs the commit epilogue: the commit
// counters, the attempt's OnCommit actions and the PostCommit hook. Every
// commit — a body that returns, a punctuation — comes through here, which
// makes it the one per-commit insertion point.
func (t *Thread) commit(tx *Tx) {
	// Capture write-ness before Commit: engines may consume their logs
	// while committing, and the PostCommit hook must still fire.
	wrote := tx.DidWrite()
	t.Sys.Engine.Commit(tx)
	t.Sys.ExitSerialIfHeld(tx)
	tx.Nesting = 0
	t.ActiveStart.Store(0)
	// Capture the write set into the thread's scratch buffer and detach
	// it: deferred OnCommit callbacks below may run whole transactions on
	// this thread (e.g. a condition-variable signal chain), and those
	// nested commits must not reuse — and thereby clobber — the backing
	// array the outer commit's wake scan is about to be handed. A nested
	// commit finds postOrecs nil, allocates its own capture, and restores
	// it on return; our locals stay intact throughout. The deferred
	// actions are detached the same way, and their array handed back once
	// they have run, so the next attempt appends to it without allocating.
	writeOrecs := append(t.postOrecs[:0], tx.WriteOrecs...)
	t.postOrecs = nil
	deferred := tx.OnCommit
	tx.OnCommit = nil
	tx.resetAfterAttempt(true)
	if wrote {
		t.Stat.Commits.Add(1)
	} else {
		t.Stat.ROCommits.Add(1)
	}
	for _, f := range deferred {
		f()
	}
	clear(deferred)
	tx.OnCommit = deferred[:0]
	if wrote && t.Sys.PostCommit != nil && !t.inPostCommit {
		t.inPostCommit = true
		t.Sys.PostCommit(t, writeOrecs)
		t.inPostCommit = false
	}
	t.postOrecs = writeOrecs[:0]
}

// unwind rolls the attempt back and releases everything it held: locks,
// the serial section, its quiescence slot, its logs and allocations.
func (t *Thread) unwind(tx *Tx) {
	t.Sys.Engine.Rollback(tx)
	// Release exclusivity before any handler sleeps, or a descheduled
	// irrevocable transaction would block the world.
	t.Sys.ExitSerialIfHeld(tx)
	tx.Nesting = 0
	t.ActiveStart.Store(0)
	tx.resetAfterAttempt(false)
}

// handle runs a Signal's handler between the TraceBlock and TraceWake
// events. The descriptor is already reset, so transactions the handler
// runs on this thread (predicate double-checks) inherit nothing of the
// attempt: a stale redo log would be written back by their commit.
// Afterwards the body re-executes with fresh scheduling state, and
// mallocs, the allocations of the attempt the signal unwound, go back to
// the pool.
func (t *Thread) handle(tx *Tx, s Signal, mallocs [][]uint64) {
	t.traceEvent(TraceBlock, 0)
	s.Handle(tx)
	t.traceEvent(TraceWake, 0)
	tx.Attempts, tx.WantSoftware, tx.IsRetry = 0, false, false
	for _, b := range mallocs {
		t.Sys.pool.put(b)
	}
}

func (t *Thread) recordAbort(r AbortReason) {
	switch r {
	case AbortConflict:
		t.Stat.ConflictAborts.Add(1)
	case AbortCapacity:
		t.SlowStat.CapacityAborts.Add(1)
	case AbortSpurious:
		t.SlowStat.SpuriousAborts.Add(1)
	case AbortExplicit:
		t.SlowStat.ExplicitAborts.Add(1)
	}
}

// InTx reports whether the thread has a transaction in flight.
func (t *Thread) InTx() bool { return t.Tx.Nesting > 0 }

// blockPool recycles transactional allocations, keyed by block size.
type blockPool struct {
	mu    spin.Lock
	lists map[int][][]uint64
}

func (p *blockPool) init() { p.lists = make(map[int][][]uint64) }

func (p *blockPool) get(n int) []uint64 {
	p.mu.Lock()
	l := p.lists[n]
	if len(l) > 0 {
		b := l[len(l)-1]
		p.lists[n] = l[:len(l)-1]
		p.mu.Unlock()
		clear(b)
		return b
	}
	p.mu.Unlock()
	return make([]uint64, n)
}

func (p *blockPool) put(b []uint64) {
	if b == nil {
		return
	}
	p.mu.Lock()
	p.lists[len(b)] = append(p.lists[len(b)], b)
	p.mu.Unlock()
}
