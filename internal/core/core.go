// Package core implements the paper's contribution: the Deschedule
// abstract mechanism for condition synchronization among transactions
// (Algorithm 4), the three language-level constructs built on it —
// Retry (Algorithm 5), Await (Algorithm 6), and WaitPred (Algorithm 7) —
// and, for comparison, the original metadata-based Retry of Harris et al.
// (Algorithm 1, "Retry-Orig").
//
// The design follows §2.2: a thread wishing to delay itself rolls its
// transaction back completely, publishes a predicate f and parameters p
// into a registry of waiting threads, double-checks f(p) in a fresh
// transaction, and sleeps on a private semaphore. After any writer
// commits, wakeWaiters re-evaluates the predicate of each sleeping waiter
// the commit may concern — a read-only computation over shared memory,
// performed strictly after commit — and signals threads whose
// preconditions now hold. Wakeup is value-based, so silent stores never
// wake a waiter.
//
// Retry-Orig sleepers are listed in the same registry and found by the same
// scan; they carry neither a predicate nor a waitset, and sharing an orec
// with the commit is what wakes them — the metadata-based decision the
// paper contrasts with the value-based one.
//
// A sleep cycle allocates nothing: each thread reuses one Waiter, its sleep
// record, which holds the slots, waitset and arguments inline while they
// are small and is itself the Signal the descheduling transaction raises.
// A wake scan that still holds a thread's record keeps it from being
// reused, and the thread's next cycle then allocates a fresh one. A commit
// that wakes waiters batches their semaphores on its stack.
package core

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"tmsync/internal/locktable"
	"tmsync/internal/sem"
	"tmsync/internal/spin"
	"tmsync/internal/tm"
)

// Pred is a wakeup predicate evaluated inside a (read-only) transaction.
// It must not write shared memory and must not itself call Retry, Await,
// WaitPred, or condition-variable waits, and it must not keep args past the
// call: they live in the sleeper's reusable record.
type Pred func(tx *tm.Tx, args []uint64) bool

// Waiter is one published sleeper, of one of three kinds: a WaitPred
// request (Pred and Args), a Retry or Await request (Waitset: it wakes once
// a logged address no longer holds its value — ready), or, with neither, a
// Retry-Orig entry (Algorithm 1).
//
// Each thread reuses one Waiter, its sleep record, across sleep cycles
// (newWaiter), yet a wake scan holding a stale snapshot of the registry
// only ever observes fields the owner wrote before listing it:
//   - every reference a scan holds outside a shard lock was counted in refs
//     under that lock (snapshot), and is dropped only after the scan's last
//     access to the waiter (wakeSome, after tryWake);
//   - the owner's remove takes the same lock afterwards, so it happens after
//     that increment;
//   - the owner rewrites the record only after it loads refs == 0, which
//     happens after the scan's last access; while refs is not 0 it takes a
//     fresh record instead;
//   - a Retry-Orig waiter whose validation fails is unlisted under locks held
//     since it was listed, so no scan can have gathered it.
type Waiter struct {
	Thr     *tm.Thread
	Pred    Pred
	Args    []uint64
	Waitset []tm.AddrVal

	cs    *CondSync
	start uint64 // Retry-Orig: the failed attempt's start time

	// slots is the ascending set of orec slots the waiter sleeps on — those
	// covering Waitset, or a Retry-Orig sleeper's whole read set; empty
	// only for WaitPred. Written by its owner before the waiter is listed
	// and read by committing writers under the shard lock: a commit that
	// wrote none of them skips the waiter (concerns).
	slots []uint32

	// shards is the ascending set of waiter-index shards covering slots,
	// which insert and remove lock; only the owner reads it.
	shards []uint32

	// Inline storage backing slots, shards, Waitset and Args while they
	// are small; larger sets spill to the heap through append.
	slotBuf  [4]uint32
	shardBuf [4]uint32
	waitBuf  [2]tm.AddrVal
	argBuf   [2]uint64

	// refs counts the wake scans that gathered the waiter and have not
	// finished with it; the owner reuses the record only at 0.
	refs atomic.Int32

	// asleep is true from publication until a waker (or the waiter
	// itself, deciding not to sleep) claims the wakeup with a CAS;
	// exactly one Signal is issued per sleep cycle.
	asleep atomic.Bool
}

// waiterShard is one shard of the waiter index: the waiters whose slots
// touch one orec-table stripe.
//
// n is len(waiters), stored under mu by set and loaded without it by
// committing writers, which skip the lock — the shard's only shared write
// — when it reads 0. That loses no wakeup: a waiter stores n (insert)
// before the double-check transaction that decides whether it sleeps (a
// Retry-Orig sleeper, before it validates its read set: (*origSignal).Handle),
// and a writer loads n after its write-back released its orecs;
// sync/atomic operations are sequentially consistent, so a writer that
// reads 0 made its writes visible before that check ran, and the waiter
// does not sleep on them. n never reads 0 while an unclaimed sleeping
// waiter is listed; a stale non-zero value costs one lock round trip.
type waiterShard struct {
	mu      spin.Lock
	n       atomic.Int32
	waiters []*Waiter
}

// set replaces the shard's list; the caller holds mu.
func (sh *waiterShard) set(ws []*Waiter) {
	sh.waiters = ws
	sh.n.Store(int32(len(ws)))
}

// paddedShard keeps adjacent shards on distinct cache lines, so that
// committing writers registering and scanning disjoint stripes do not
// contend on shard metadata (TestPaddedShardLayout pins it).
type paddedShard struct {
	waiterShard
	_ [(64 - unsafe.Sizeof(waiterShard{})%64) % 64]byte
}

// CondSync is the condition-synchronization runtime attached to one
// tm.System.
type CondSync struct {
	sys *tm.System

	// shards is the per-stripe waiter index, one shard per orec-table
	// stripe, sized by Enable: a waiter that sleeps on orec slots — a
	// waitset's, or a Retry-Orig read set's — registers on exactly the
	// stripes covering them, and a committing writer visits only the
	// shards of the stripes its write orecs lie on, and there examines
	// only waiters sharing an orec with it (Algorithm 4's wakeup, and
	// Algorithm 1's, made O(write set) instead of O(waiters)). Algorithm 1
	// guards its registry with one global lock to make read-set validation
	// atomic with insertion; here the locks of every covering shard, held
	// together, do.
	shards []paddedShard

	// unindexed lists the waiters without slots (WaitPred's arbitrary
	// predicates): they can depend on any location, so every committing
	// writer re-evaluates them.
	unindexed waiterShard

	// origPublished, if set, runs in (*origSignal).Handle between publishing
	// a sleeper's shard lengths and validating its read set — the window
	// the empty-shard guard's soundness rests on (tests).
	origPublished func()
}

// Enable attaches a condition-synchronization runtime to sys and installs
// the post-commit wakeWaiters hook. It must be called once, before any
// transactions run.
func Enable(sys *tm.System) *CondSync {
	cs := &CondSync{sys: sys, shards: make([]paddedShard, sys.Table.NumStripes())}
	sys.Ext = cs
	sys.PostCommit = cs.wakeWaiters
	return cs
}

// For returns the runtime attached to the transaction's system.
func For(tx *tm.Tx) *CondSync {
	cs, ok := tx.Sys.Ext.(*CondSync)
	if !ok {
		panic("core: condition synchronization not enabled on this system (call core.Enable)")
	}
	return cs
}

// newWaiter returns the waiter of one sleep cycle of tx's thread, reset and
// unlisted: the thread's sleep record once no wake scan holds it (refs reads
// 0; see Waiter), and otherwise a fresh record that becomes the thread's
// own — the old one is collected once the stale scan drops it. Slots,
// shards, waitset and arguments start empty, on their inline arrays or on
// whatever larger ones they spilled to in an earlier cycle.
func (cs *CondSync) newWaiter(tx *tm.Tx) *Waiter {
	w := (*Waiter)(tx.SleepRecord)
	if w == nil || w.refs.Load() != 0 {
		w = &Waiter{Thr: tx.Thr, cs: cs}
		w.slots, w.shards = w.slotBuf[:0], w.shardBuf[:0]
		w.Waitset, w.Args = w.waitBuf[:0], w.argBuf[:0]
		tx.SleepRecord = unsafe.Pointer(w)
	}
	clear(w.Waitset) // drop the last cycle's addresses for the GC
	w.Pred, w.start = nil, 0
	w.slots, w.shards = w.slots[:0], w.shards[:0]
	w.Waitset, w.Args = w.Waitset[:0], w.Args[:0]
	w.asleep.Store(false)
	return w
}

// indexSlots finishes the waiter of a mechanism that sleeps on orec slots
// (every one but WaitPred), once the caller has appended them to w.slots:
// w.slots becomes their deduplicated, ascending set and w.shards the
// waiter-index shards covering it. Ascending shard order matters: every
// multi-shard lock acquisition in this package goes low-to-high, which
// rules out deadlock between two mutators whose shard sets overlap. An
// attempt that read nothing sleeps on no slot a commit could write: that is
// a bug in the caller, reported here — before any signal is raised —
// instead of by a thread that never wakes.
func (w *Waiter) indexSlots(mech string) {
	if len(w.slots) == 0 {
		panic("core: " + mech + " with an empty read set can never be woken")
	}
	slices.Sort(w.slots)
	w.slots = slices.Compact(w.slots)
	w.shards = w.cs.sys.Table.StripesOf(w.slots, w.shards)
}

// ready is the wake test of Retry, Await and WaitPred, evaluated in tx by
// a waker and by the owner's double-check: WaitPred's predicate holds, or
// some address in the waitset no longer holds the value the failed attempt
// observed (Algorithm 5's wakeup predicate). Reads go through the
// transaction so the evaluation is consistent (and, under HTM, subject to
// ordinary conflict detection). A Retry-Orig sleeper has neither and is
// never asked.
func (w *Waiter) ready(tx *tm.Tx) bool {
	if w.Pred != nil {
		return w.Pred(tx, w.Args)
	}
	for _, av := range w.Waitset {
		if tx.Read(av.Addr) != av.Val {
			return true
		}
	}
	return false
}

// maxSlotCompares is the number of slot × write-orec pairs up to which
// concerns compares them all; past it, it binary-searches the waiter's
// sorted slots for each write orec.
const maxSlotCompares = 256

// concerns reports whether a commit that stored to the words covered by
// writeOrecs wrote under an orec w sleeps on. The answer is exact at every
// size — for a Retry-Orig sleeper it is the wake decision — and true
// unseen only where there is nothing to intersect: no slots (WaitPred) or
// no write orecs recorded.
func (w *Waiter) concerns(writeOrecs []uint32) bool {
	if len(w.slots) == 0 || len(writeOrecs) == 0 {
		return true
	}
	if len(w.slots)*len(writeOrecs) <= maxSlotCompares {
		for _, s := range w.slots {
			for _, o := range writeOrecs {
				if s == o {
					return true
				}
			}
		}
		return false
	}
	for _, o := range writeOrecs {
		if _, hit := slices.BinarySearch(w.slots, o); hit {
			return true
		}
	}
	return false
}

// lockShards acquires the waiter-index shard locks for the given ascending
// stripe set. Holding every covering lock at once (rather than one at a
// time) keeps a waiter from ever being visible half-inserted.
//
//tm:lockorder-checked
func (cs *CondSync) lockShards(ss []uint32) {
	for _, s := range ss {
		cs.shards[s].mu.Lock()
	}
}

func (cs *CondSync) unlockShards(ss []uint32) {
	for _, s := range ss {
		cs.shards[s].mu.Unlock()
	}
}

// list appends w to every shard covering it; the caller holds their locks.
func (cs *CondSync) list(w *Waiter) {
	for _, s := range w.shards {
		sh := &cs.shards[s].waiterShard
		sh.set(append(sh.waiters, w))
	}
}

// unlist takes w off every shard covering it; the caller holds their locks.
func (cs *CondSync) unlist(w *Waiter) {
	for _, s := range w.shards {
		sh := &cs.shards[s].waiterShard
		sh.set(removeFrom(sh.waiters, w))
	}
}

// insert publishes a waiter: one with slots registers on every shard they
// touch (a writer that changes a waitset value necessarily writes an
// address covered by one of the waiter's orec slots, hence by one of those
// stripes, so no wakeup can be missed); one without goes to the unindexed
// list scanned by every committing writer.
//
//tm:lockorder-checked
func (cs *CondSync) insert(w *Waiter) {
	if len(w.slots) == 0 {
		sh := &cs.unindexed
		sh.mu.Lock()
		sh.set(append(sh.waiters, w))
		sh.mu.Unlock()
		return
	}
	cs.lockShards(w.shards)
	cs.list(w)
	cs.unlockShards(w.shards)
}

func removeFrom(ws []*Waiter, w *Waiter) []*Waiter {
	for i, x := range ws {
		if x == w {
			ws[i] = ws[len(ws)-1]
			ws[len(ws)-1] = nil
			return ws[:len(ws)-1]
		}
	}
	return ws
}

// remove withdraws a waiter from the shards it was listed on.
//
//tm:lockorder-checked
func (cs *CondSync) remove(w *Waiter) {
	if len(w.slots) == 0 {
		sh := &cs.unindexed
		sh.mu.Lock()
		sh.set(removeFrom(sh.waiters, w))
		sh.mu.Unlock()
		return
	}
	cs.lockShards(w.shards)
	cs.unlist(w)
	cs.unlockShards(w.shards)
}

// snapshot appends to buf the shallow copy of the shard's waiting list
// that wakeWaiters iterates (Algorithm 4, wakeWaiters line 1), avoiding
// contention with concurrent inserts while predicates are evaluated. A
// waiter the commit's write orecs do not concern is left out here, under
// the lock, at the cost of a few compares; one gathered is counted in its
// refs, under the lock, until wakeSome is done with it. An empty shard costs
// one load of n and no write; see waiterShard.
//
//tm:lockorder-checked
func (sh *waiterShard) snapshot(buf []*Waiter, writeOrecs []uint32) []*Waiter {
	if sh.n.Load() == 0 {
		return buf
	}
	sh.mu.Lock()
	for _, w := range sh.waiters {
		if w.concerns(writeOrecs) {
			w.refs.Add(1)
			buf = append(buf, w)
		}
	}
	sh.mu.Unlock()
	return buf
}

// WaitingLen reports the current number of distinct published sleepers of
// every mechanism, Retry-Orig included (tests, watchdogs). A waiter whose
// slots span several stripes is registered on each, so the shard lists are
// deduplicated.
//
//tm:lockorder-checked
func (cs *CondSync) WaitingLen() int {
	seen := make(map[*Waiter]struct{})
	cs.unindexed.mu.Lock()
	for _, w := range cs.unindexed.waiters {
		seen[w] = struct{}{}
	}
	cs.unindexed.mu.Unlock()
	for i := range cs.shards {
		sh := &cs.shards[i].waiterShard
		sh.mu.Lock()
		for _, w := range sh.waiters {
			seen[w] = struct{}{}
		}
		sh.mu.Unlock()
	}
	return len(seen)
}

// A commit's stripe set is one uint64 (wakeWaiters): the build fails if
// the table ever has more stripes than that holds.
var _ [64 - locktable.DefaultStripes]struct{}

// wakeWaiters is installed as the system's PostCommit hook; it runs on the
// committing thread strictly after the writer's effects are visible, with
// the attempt's write orecs captured by the driver (so neither OnCommit
// callbacks nor the nested predicate transactions below can clobber them).
//
// It implements the bottom half of Algorithm 4 (and, for Retry-Orig
// waiters, Algorithm 1's TxCommit lines 10–15), narrowed twice.
// By stripe: visit the waiter shard of each stripe a write orec lies on,
// once, plus the unindexed list. By orec: of the waiters found there,
// examine those sleeping on an orec slot the write set shares — any other
// waits on words this commit did not store to, and the commit that does
// store to one will examine it. A commit that recorded no orecs scans
// every shard and examines every waiter it meets.
//
// The snapshots are gathered into one buffer before any predicate runs.
// It starts on this frame — the hook is never re-entered on a thread —
// so a commit that finds few waiters, or none, allocates nothing.
func (cs *CondSync) wakeWaiters(t *tm.Thread, writeOrecs []uint32) {
	var scratch [smallScan]*Waiter
	ws := scratch[:0]
	scanned := 0
	if len(writeOrecs) == 0 {
		// The conservative full scan.
		scanned = len(cs.shards)
		for i := range cs.shards {
			ws = cs.shards[i].snapshot(ws, writeOrecs)
		}
	} else {
		tbl := cs.sys.Table
		var visited uint64 // bit s: stripe s's shard is scanned
		for _, o := range writeOrecs {
			s := tbl.StripeOf(o)
			if visited&(1<<s) != 0 {
				continue
			}
			visited |= 1 << s
			scanned++
			ws = cs.shards[s].snapshot(ws, writeOrecs)
		}
	}
	if scanned > 1 {
		// A waiter may be registered on several of the scanned stripes:
		// visit it once.
		ws = dedupe(ws)
	}
	ws = cs.unindexed.snapshot(ws, writeOrecs)
	if len(ws) > 0 {
		cs.wakeSome(t, ws)
	}
}

// wakeSome examines the gathered waiters, accumulating the ones it claims
// into one batch, and issues every semaphore signal after the last shard
// lock has been released: the per-commit form of Algorithm 4's deferred
// semaphore operations. The batch lives on this frame, which only a commit
// that found a waiter builds. Each waiter's count (snapshot) is dropped once
// tryWake is done with it; the batch holds the thread's semaphore, not the
// waiter.
func (cs *CondSync) wakeSome(t *tm.Thread, ws []*Waiter) {
	var batch sem.Batch
	checks := 0
	for _, w := range ws {
		if cs.tryWake(t, w, &batch) {
			checks++
		}
		w.refs.Add(-1)
	}
	if checks > 0 {
		t.Stat.WakeChecks.Add(uint64(checks))
	}
	if n := batch.SignalAll(); n > 0 {
		t.Stat.BatchedSignals.Add(uint64(n))
	}
}

// smallScan is the number of gathered waiters up to which a wake scan
// stays on the stack and dedupes by comparing pairs.
const smallScan = 16

// dedupe removes repeated waiters from ws in place, keeping first
// occurrences in order and dropping the count (snapshot) each removed
// repeat took.
func dedupe(ws []*Waiter) []*Waiter {
	out := ws[:0]
	if len(ws) <= smallScan {
	next:
		for _, w := range ws {
			for _, x := range out {
				if x == w {
					w.refs.Add(-1)
					continue next
				}
			}
			out = append(out, w)
		}
		return out
	}
	seen := make(map[*Waiter]struct{}, len(ws))
	for _, w := range ws {
		if _, dup := seen[w]; dup {
			w.refs.Add(-1)
			continue
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	return out
}

// tryWake examines one sleeping waiter the commit concerns and reports that
// it did; a waiter already claimed costs nothing. Its wake test (ready) is
// evaluated in a fresh (read-only, hardware-friendly) transaction; a
// Retry-Orig waiter should wake because it got here — for Algorithm 1 the
// shared orec is the decision. If the waiter should wake, claim it with a
// CAS and hand its semaphore to the per-commit batch (the claim makes the
// wakeup this commit's responsibility; the signal itself is deferred until
// every shard has been scanned — Algorithm 4 line 9, applied per commit
// rather than per waiter). Its last touch of the waiter is w.Thr.Sem: the
// caller may let the record be reused once it returns.
func (cs *CondSync) tryWake(t *tm.Thread, w *Waiter, batch *sem.Batch) bool {
	if !w.asleep.Load() {
		return false
	}
	should := w.Pred == nil && len(w.Waitset) == 0 // Retry-Orig
	if !should {
		t.Atomic(func(tx *tm.Tx) {
			should = w.asleep.Load() && w.ready(tx)
		})
	}
	if should && w.asleep.CompareAndSwap(true, false) {
		batch.Add(w.Thr.Sem)
	}
	return true
}

// sleep blocks the published waiter's thread until a committing writer
// signals it, then withdraws the waiter.
func (cs *CondSync) sleep(tx *tm.Tx, w *Waiter) {
	cs.sys.SemWait(tx.Thr, tx.Thr.Sem)
	// Clear the claim flag ourselves: if the consumed token was stale (a
	// pre-drain waker's signal landing mid-cycle), no waker has CASed
	// asleep for THIS cycle, and leaving it set would let a waker holding
	// a stale registry snapshot claim — and signal — a waiter that has
	// already departed.
	w.asleep.Store(false)
	tx.Thr.Stat.Wakeups.Add(1)
	cs.remove(w)
}

// deschedSignal is a Waiter raised as the Signal that unwinds a
// transaction which must be descheduled (a pointer needs no interface
// box). By the time Handle runs the driver has rolled the attempt back and
// reset the descriptor, so memory is indistinguishable from the
// transaction never having run; what remains is the publish / double-check
// / sleep protocol of Algorithm 4. The driver undoes the attempt's
// allocations only once Handle returns (captured-memory rule: the waitset
// may name them) and then restarts the parent transaction with fresh
// scheduling state.
type deschedSignal Waiter

func (s *deschedSignal) Handle(tx *tm.Tx) {
	w := (*Waiter)(s)
	cs := w.cs
	tx.Thr.Stat.Deschedules.Add(1)

	// Discard any token left over from an earlier sleep cycle BEFORE this
	// cycle becomes claimable. A claim-winning waker whose (batched)
	// signal landed after the previous cycle's best-effort drain would
	// otherwise satisfy this cycle's Wait immediately, waking the waiter
	// with a predicate that does not hold.
	tx.Thr.Sem.TryDrain()
	w.asleep.Store(true)
	cs.insert(w)

	// Double-check the precondition in a fresh outermost transaction. The
	// waiter is already published, so a writer that commits after this
	// evaluation is guaranteed to observe it — no lost wakeups.
	hold := false
	tx.Thr.Atomic(func(chk *tm.Tx) {
		hold = w.ready(chk)
	})

	if hold {
		cs.remove(w)
		if !w.asleep.CompareAndSwap(true, false) {
			// A racing writer claimed the wakeup; its token may already
			// be buffered, or may still be waiting in the writer's
			// signal batch. Discard what has arrived; the drain at the
			// start of the next sleep cycle catches a late token.
			tx.Thr.Sem.TryDrain()
		}
	} else {
		cs.sleep(tx, w)
	}
}

// deschedOnWaitset raises Retry's and Await's deschedule signal: sleep on
// the orec slots covering the attempt's waitset until one of its values
// changes (ready).
func (cs *CondSync) deschedOnWaitset(tx *tm.Tx, mech string) {
	w := cs.newWaiter(tx)
	for i := range tx.Waitset {
		w.slots = append(w.slots, cs.sys.Table.IndexOf(tx.Waitset[i].Addr))
	}
	w.indexSlots(mech)
	w.Waitset = append(w.Waitset, tx.Waitset...)
	panic((*deschedSignal)(w))
}

// Retry implements Algorithm 5. A first call inside an uninstrumented
// attempt restarts the transaction in a mode that logs an address/value
// pair on every read (hardware transactions additionally switch to the
// serial software mode, since HTM lacks escape actions); the re-executed
// attempt reaches Retry with a populated waitset and deschedules until a
// value in it changes.
func Retry(tx *tm.Tx) {
	cs := For(tx)
	if tx.Mode == tm.ModeHW {
		// Ensure software mode (Algorithm 5 line 1); the switch doubles as
		// backoff: the software re-execution may discover its precondition
		// was established concurrently and never reach Retry again.
		tx.WantSoftware = true
		tx.RestartTagged()
	}
	if !tx.IsRetry {
		tx.RestartTagged()
	}
	tx.IsRetry = false
	cs.deschedOnWaitset(tx, "Retry")
}

// Await implements Algorithm 6: wait until any of the given addresses —
// which the transaction must already have read — changes value. It logs
// the addresses into the waitset, and the engine's AwaitSnapshot undoes
// speculative writes (holding locks where read-for-write demands it) and
// fills in their committed values; hardware transactions first restart in
// software mode.
func Await(tx *tm.Tx, addrs ...*uint64) {
	cs := For(tx)
	if tx.Mode == tm.ModeHW {
		tx.RestartSoftware()
	}
	tx.ResetWaitset()
	for _, addr := range addrs {
		tx.LogWait(addr, 0)
	}
	tx.Sys.Engine.AwaitSnapshot(tx)
	cs.deschedOnWaitset(tx, "Await")
}

// WaitPred implements Algorithm 7: deschedule until the user-supplied
// predicate holds. The arguments are marshalled into the waiter (they
// cannot live in transactional memory, whose writes are about to be
// undone). As under Retry and Await, a hardware transaction re-executes in
// software mode first.
func WaitPred(tx *tm.Tx, pred Pred, args ...uint64) {
	cs := For(tx)
	if tx.Mode == tm.ModeHW {
		tx.RestartSoftware()
	}
	w := cs.newWaiter(tx)
	w.Pred = pred
	w.Args = append(w.Args, args...)
	panic((*deschedSignal)(w))
}

// origSignal is a Retry-Orig Waiter raised as the Signal that implements
// the sleep half of Algorithm 1. The waiter carries the read metadata
// captured when RetryOrig was called (the descriptor is reset before
// Handle runs): its slots are the read set's orecs, and start the
// attempt's start time.
type origSignal Waiter

// RetryOrig implements the original Retry mechanism (Algorithm 1), the
// good-faith adaptation of Harris et al.'s STM retry: publish the
// transaction's read-set *metadata* (orec slots) atomically with
// validation, and rely on every committing writer intersecting its lock
// set against all sleepers. It requires STM metadata and therefore
// supports neither hardware nor serial HTM modes.
func RetryOrig(tx *tm.Tx) {
	cs := For(tx)
	if tx.Mode != tm.ModeSTM {
		panic("core: RetryOrig requires an STM engine (no HTM support, §2.1)")
	}
	w := cs.newWaiter(tx)
	for i := range tx.Reads {
		w.slots = append(w.slots, tx.Reads[i].Orec)
	}
	w.indexSlots("RetryOrig")
	w.start = tx.Start
	panic((*origSignal)(w))
}

func (s *origSignal) Handle(tx *tm.Tx) {
	w := (*Waiter)(s)
	cs := w.cs
	tbl := cs.sys.Table
	tx.Thr.Stat.Deschedules.Add(1)
	// Discard any stale token from an earlier sleep cycle before this
	// cycle's waiter becomes claimable (same rationale as the Deschedule
	// path: a late batched signal must not satisfy a later cycle's Wait).
	tx.Thr.Sem.TryDrain()
	w.asleep.Store(true)

	// Atomically with validation, add the calling transaction to the
	// waiting list (Algorithm 1, Retry lines 3–8): every shard covering the
	// read set is locked at once, the waiter is listed and the orecs
	// validated under those locks, and the waiter taken off again if
	// validation fails. Listing comes first because a committing writer
	// skips a shard whose length reads 0 without taking its lock: with the
	// length stored before the orecs are read, per stripe either the
	// writer's version bump precedes the validation (which then fails and
	// restarts), or the writer loads a non-zero length, takes the lock —
	// held here until the waiter's fate is settled — and its scan finds the
	// waiter and wakes it. Validating first would let a writer publish its
	// orecs and skip the still-empty shard in between, and the waiter would
	// sleep on a version nobody will bump again. The driver has already
	// undone writes and released locks "as if the transaction never ran",
	// so a valid read is one whose orec is unlocked at a version no newer
	// than the transaction's start.
	cs.lockShards(w.shards)
	cs.list(w)
	if cs.origPublished != nil {
		cs.origPublished()
	}
	valid := true
	for _, idx := range w.slots {
		o := tbl.Get(idx)
		if locktable.Locked(o) || locktable.Version(o) > w.start {
			// A concurrent modification means re-execution may already
			// be profitable; restart instead of risking a missed wakeup.
			// No scan has seen the waiter: the locks are still held.
			valid = false
			cs.unlist(w)
			break
		}
	}
	cs.unlockShards(w.shards)
	if valid {
		cs.sleep(tx, w)
	}
}
