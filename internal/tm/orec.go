package tm

import (
	"math/bits"
	"sync/atomic"

	"tmsync/internal/locktable"
)

// The orec protocol of Appendix A (Algorithms 8–11), written once. Every
// engine is a composition of the steps in this file: eager is an undo log
// plus encounter-time Acquire, lazy a redo log plus CommitRedo, and the
// hardware modes of htm and hybrid (hw.go) run CommitRedo under the
// simulated-hardware layer. A soundness fix to the protocol lands here
// and nowhere else, and each fact it rests on is checked once, by running
// it: protocol_test.go states the contract on every engine path, and
// TestProtocolMutationDrill (root smoke_test.go) reverts each fix in this
// file and demands that suite fail.

// BeginSoftware starts an instrumented software attempt: it samples the
// clock and publishes the attempt for quiescence (Algorithm 9, TxBegin),
// waiting out any serial section. The thread's signature carries over
// from earlier attempts (a stale bit only costs a committer a wait, see
// Quiesce) until it is fuller than sigClearFill; it is cleared, if at
// all, before the attempt is published.
func (tx *Tx) BeginSoftware() {
	tx.Mode = ModeSTM
	if tx.sigFill > sigClearFill {
		tx.Thr.SigReset()
	}
	tx.Start = tx.Thr.PublishStartSerialAware(tx)
}

// Owns reports whether orec word w is write-locked by this attempt.
func (tx *Tx) Owns(w uint64) bool {
	return locktable.Locked(w) && locktable.Owner(w) == tx.Thr.ID
}

// ReadCommitted is Algorithm 10's TxRead: sample the orec, the location,
// then the orec again, and accept the value only if the sample is
// consistent and the snapshot covers it, recording the read for later
// validation. An orec this attempt itself holds (encounter-time locking)
// is consistent by ownership: memory then carries the attempt's own
// in-place store and nothing is recorded. Anything else aborts.
//
// The orec joins the thread's signature before it is first sampled, on
// every path: a privatizing committer that finds the bit clear may skip
// this attempt (Quiesce), which is sound only because the sample then
// cannot predate the commit's release.
func (tx *Tx) ReadCommitted(addr *uint64) uint64 {
	tbl := tx.Sys.Table
	idx := tbl.IndexOf(addr)
	tx.Thr.SigAdd(idx)
	w := tbl.Get(idx)
	val := atomic.LoadUint64(addr)
	if tx.Owns(w) {
		return val
	}
	if tbl.Get(idx) == w && tx.Covers(w) {
		tx.Reads = append(tx.Reads, ReadEntry{Addr: addr, Orec: idx})
		return val
	}
	tx.Abort(AbortConflict)
	panic("unreachable")
}

// Covers reports whether w, an orec word just sampled, is unlocked at a
// version the attempt's snapshot covers. Appendix A's TxRead aborts on
// anything else, a too-new version included: the clock already covers
// every published version (clock package invariant), so the re-execution
// samples a snapshot that reads it.
func (tx *Tx) Covers(w uint64) bool {
	return !locktable.Locked(w) && locktable.Version(w) <= tx.Start
}

// Acquire write-locks orec slot idx, last sampled as w, keeping its
// version for release-on-abort, and records the slot in Locks, which
// Publish hands to the post-commit wakeup. It aborts if w is locked or the
// orec moved since it was sampled.
func (tx *Tx) Acquire(idx uint32, w uint64) {
	if locktable.Locked(w) || !tx.Sys.Table.CAS(idx, w, locktable.LockedBy(tx.Thr.ID, locktable.Version(w))) {
		tx.Abort(AbortConflict)
	}
	tx.Locks = append(tx.Locks, idx)
}

func (tx *Tx) holds(idx uint32) bool {
	for _, l := range tx.Locks {
		if l == idx {
			return true
		}
	}
	return false
}

// ValidateReads checks that every read is still unlocked at a version no
// newer than the start time, or locked by this attempt with its
// pre-acquisition version no newer than the start time (vacuous under
// encounter-time locking, which only acquires covered orecs).
func (tx *Tx) ValidateReads() bool {
	for i := range tx.Reads {
		w := tx.Sys.Table.Get(tx.Reads[i].Orec)
		if locktable.Locked(w) {
			if locktable.Owner(w) != tx.Thr.ID || locktable.Version(w) > tx.Start {
				return false
			}
		} else if locktable.Version(w) > tx.Start {
			return false
		}
	}
	return true
}

// Stamp is a commit timestamp this attempt has validated at. Only
// CommitStamp makes one and only Publish consumes one, so publishing from
// a stale Clock.Now sample, or before validating, does not compile.
type Stamp struct{ end uint64 }

// CommitStamp takes the attempt's commit timestamp (Algorithm 9, TxCommit)
// and proves the attempt may publish at it: the read set validates unless
// the clock shows no other writer could have committed since Start (the
// TL2 end == start+1 fast path). It aborts otherwise; the caller must
// already hold every lock it will publish. The stamp strictly exceeds
// every version the attempt locked: the clock covered those when they
// were published, and Commit advances it.
func (tx *Tx) CommitStamp() Stamp {
	end, exclusive := tx.Sys.Clock.Commit(tx.Start, 0)
	if !exclusive && !tx.ValidateReads() {
		tx.Abort(AbortConflict)
	}
	return Stamp{end}
}

// Publish makes the attempt's writes durable: it hands the lock set to
// the post-commit wakeup, releases every lock at the stamp, on a system
// with a hardware layer dooms the hardware attempts the write set
// overlaps — software committers included, or hardware attempts would miss
// eager invalidation from the software path — and, for a software attempt,
// quiesces.
//
// The doom scan walks every live thread, so it runs once the locks are
// released: it is early notice, not protection — a hardware reader that
// misses it fails the version check of its next read or of its commit —
// and a hardware commit should hold its orecs no longer than the
// write-back takes. It runs before the quiescence wait, which is shorter
// for every hardware attempt that has been told to stop.
func (tx *Tx) Publish(s Stamp) {
	tx.WriteOrecs = append(tx.WriteOrecs, tx.Locks...)
	for _, idx := range tx.Locks {
		tx.Sys.Table.Set(idx, locktable.UnlockedAt(s.end))
	}
	tx.Locks = tx.Locks[:0]
	if tx.Sys.HWLayer {
		tx.doomHWReaders()
	}
	if tx.Mode == ModeSTM {
		// The transaction is logically committed: retire its activity
		// before quiescing, or two committers would wait on each other.
		tx.Thr.ActiveStart.Store(0)
		tx.Sys.Quiesce(tx.Thr, s.end, tx.WriteOrecs)
	}
}

// Quiesce blocks until every attempt that may have read the pre-commit
// state of writeOrecs, the orecs a commit stamped end just released, has
// finished, providing privatization safety after a writer commit
// (Appendix A, TxCommit line 20). It visits only the threads of the live
// set and waits on one only while both hold:
//
//   - its ActiveStart is the sentinel (it is publishing) or start+1 with
//     start < end. An attempt with start >= end began after the stamp was
//     fixed: a read of our write set before the release aborts on the
//     locked orec, and one after it reads version end, which its snapshot
//     covers, so it never sees pre-commit state;
//   - its signature may hold one of writeOrecs. That is sound because:
//     (a) a reader Or's the orec's bit into its signature and then samples
//     the orec (ReadCommitted), while we released the orec and then load
//     the signature. Go's atomics are sequentially consistent, so either
//     we see the bit and wait, or the reader's sample sees a locked word
//     or version end > its start, and aborts: there is no timestamp
//     extension to let it through.
//     (b) Bits are cleared only between attempts, before ActiveStart is
//     published (BeginSoftware, BeginHW). A cleared word we load belongs
//     to an attempt whose start is >= end, or the attempt that set the bit
//     has already retired.
//     (c) A stale bit from an earlier attempt, or another orec's bit on
//     the same slot, only costs a wait that was once taken on every
//     commit.
//
// (d) Skipping a thread outside the live set, or one registered after
// Threads() was loaded, is sound as the argument Threads() makes for the
// latter: we load its live word after releasing our orecs, and it sets
// its bit (Thread.list) before it publishes ActiveStart. A walk that finds
// the bit clear loaded the word before the owner's Or, so that attempt
// samples the clock after our release and starts at >= end.
func (s *System) Quiesce(self *Thread, end uint64, writeOrecs []uint32) {
	mask := sigMask(writeOrecs)
	ts := s.Threads()
	for wi := range (len(ts) + 63) / 64 {
		for m := s.live[wi].Load(); m != 0; m &= m - 1 {
			i := wi*64 + bits.TrailingZeros64(m)
			if i >= len(ts) {
				break
			}
			t := ts[i]
			if t == self {
				continue
			}
			for {
				// st is 0 when inactive, startSentinel while the thread is
				// publishing, and start+1 otherwise.
				st := t.ActiveStart.Load()
				if st == 0 || (st != startSentinel && st > end) {
					break
				}
				if !t.sigMayIntersect(&mask) {
					break
				}
				spinYield()
			}
		}
	}
}

// CommitRedo is the TL2-style two-phase commit of a redo-log attempt:
// acquire the write set's orecs, stamp, write the log back, publish.
// Read-only attempts commit for free.
func (tx *Tx) CommitRedo() {
	if tx.Redo.Len() == 0 {
		return
	}
	for i := range tx.Redo.Entries {
		if idx := tx.Redo.Entries[i].Orec; !tx.holds(idx) {
			tx.Acquire(idx, tx.Sys.Table.Get(idx))
		}
	}
	s := tx.CommitStamp()
	for i := range tx.Redo.Entries {
		atomic.StoreUint64(tx.Redo.Entries[i].Addr, tx.Redo.Entries[i].Val)
	}
	tx.Publish(s)
}

// ReleaseLocks is the lock half of Algorithm 11's TxAbort: release every
// held orec at its old version plus one, so concurrent readers notice the
// ownership change. The clock bump precedes the release so that the
// republished versions are already covered by the clock when they become
// visible, as the clock package's invariants require: a version ahead of
// the clock would abort every reader until some later commit moved the
// clock, and a concurrent Commit could hand that version out again,
// breaking the strict per-orec version increase that makes
// ReadCommitted's unchanged-word recheck prove no lock cycle intervened.
// Idempotent.
func (tx *Tx) ReleaseLocks() {
	if len(tx.Locks) == 0 {
		return
	}
	tx.Sys.Clock.Bump()
	for _, idx := range tx.Locks {
		w := tx.Sys.Table.Get(idx)
		tx.Sys.Table.Set(idx, locktable.UnlockedAt(locktable.Version(w)+1))
	}
	tx.Locks = tx.Locks[:0]
}

// UndoWrites applies the undo log in reverse and clears it, restoring
// memory to its pre-attempt contents. The caller keeps whatever ownership
// made the in-place stores safe until it has run.
func (tx *Tx) UndoWrites() {
	for i := len(tx.Undo) - 1; i >= 0; i-- {
		atomic.StoreUint64(tx.Undo[i].Addr, tx.Undo[i].Old)
	}
	tx.Undo = tx.Undo[:0]
}

// AwaitSnapshot is the Await re-read step (Algorithm 6) for the software
// engines: undo the attempt's in-place writes while still holding their
// locks (releasing would be incorrect for read-for-write accesses; a redo
// log has none to undo), then read each waitset address consistently with
// the whole transaction and fill in its value. The caller subsequently
// deschedules, at which point Rollback releases the retained locks.
func (tx *Tx) AwaitSnapshot() {
	tx.UndoWrites()
	for i := range tx.Waitset {
		tx.Waitset[i].Val = tx.ReadCommitted(tx.Waitset[i].Addr)
	}
}

// LogCommitted appends addr's committed value to the waitset, given its
// current in-memory value: if this attempt stored to addr in place, the
// committed value is the one the oldest undo-log entry preserves
// (Algorithm 5 must never log a speculative value).
func (tx *Tx) LogCommitted(addr *uint64, val uint64) {
	if old, ok := tx.OldValue(addr); ok {
		val = old
	}
	tx.LogWait(addr, val)
}
