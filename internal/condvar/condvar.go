// Package condvar implements transaction-safe condition variables
// ("TMCondVar" in the evaluation), following the semantics of Wang et
// al. [7]: Wait commits the in-flight transaction at the wait point —
// breaking its atomicity and making partial effects visible — enqueues the
// calling thread FIFO, sleeps, and then re-executes the atomic block from
// the top (the explicit while-loop of Listing 2). Signal and Broadcast
// issued inside a transaction are deferred until that transaction commits,
// so a signal can never escape from an attempt that later aborts.
package condvar

import (
	"tmsync/internal/sem"
	"tmsync/internal/spin"
	"tmsync/internal/tm"
)

// Var is a transaction-safe condition variable.
type Var struct {
	mu    spin.Lock
	queue []*waiter

	// waitseq is transactional state written by every Wait before its
	// punctuation commit. The write forces the commit onto the validating
	// writer path, so a waiter whose condition check raced with a
	// signalling commit aborts and re-checks instead of sleeping against
	// a stale snapshot — the transactional analogue of enqueuing under
	// the monitor lock.
	waitseq uint64
}

type waiter struct {
	s *sem.Sem
}

// New returns an empty condition variable.
func New() *Var { return &Var{} }

// WaitingLen reports the number of queued waiters (tests and stats).
func (v *Var) WaitingLen() int {
	v.mu.Lock()
	n := len(v.queue)
	v.mu.Unlock()
	return n
}

func (v *Var) enqueue(w *waiter) {
	v.mu.Lock()
	v.queue = append(v.queue, w)
	v.mu.Unlock()
}

func (v *Var) dequeueSpecific(w *waiter) {
	v.mu.Lock()
	for i, x := range v.queue {
		if x == w {
			v.queue = append(v.queue[:i], v.queue[i+1:]...)
			break
		}
	}
	v.mu.Unlock()
}

func (v *Var) popOne() *waiter {
	v.mu.Lock()
	if len(v.queue) == 0 {
		v.mu.Unlock()
		return nil
	}
	w := v.queue[0]
	v.queue = v.queue[1:]
	v.mu.Unlock()
	return w
}

func (v *Var) popAll() []*waiter {
	v.mu.Lock()
	out := v.queue
	v.queue = nil
	v.mu.Unlock()
	return out
}

// Wait commits the current transaction's effects at the wait point (the
// atomicity break that distinguishes condition variables from Retry,
// §1.2), sleeps until signalled, and restarts the atomic block. The waiter
// is enqueued before the commit, so a signaller whose state change
// conflicts with this transaction either aborts this commit (and the block
// re-checks its condition) or finds the waiter queued — no lost wakeups.
func (v *Var) Wait(tx *tm.Tx) {
	// Discard any token left over from an earlier sleep cycle (a ghost
	// waiter popped by a racing Signal after this thread withdrew, or a
	// late batched wakeup from a Deschedule cycle the thread departed)
	// before this waiter is enqueued and becomes signallable. The thread
	// holds no published waiter of any kind here, so a buffered token can
	// only be stale; consumed later by the sleep below, it would fire a
	// spurious wakeup with the condition unestablished.
	tx.Thr.Sem.TryDrain()
	w := &waiter{s: tx.Thr.Sem}
	v.enqueue(w)
	var wrote bool
	func() {
		defer func() {
			if r := recover(); r != nil {
				// The sequence bump or punctuation commit aborted;
				// withdraw the queue entry and let the driver retry the
				// whole block. Leaving it queued would leak a stale
				// waiter that a later Signal would consume.
				v.dequeueSpecific(w)
				panic(r)
			}
		}()
		tx.Write(&v.waitseq, tx.Read(&v.waitseq)+1)
		wrote = tx.DidWrite()
		tx.Sys.Engine.Commit(tx)
	}()
	// The attempt committed: finalize deferred frees, keep allocations,
	// and detach deferred actions before the driver's abort-path reset
	// (which would otherwise undo them) runs. The write set is copied
	// into the signal itself: the deferred actions below may commit their
	// own transactions before Handle's post-commit wake scan runs, and
	// per-thread or descriptor state would be overwritten by then.
	tx.Sys.FreeBlocks(tx.Frees)
	tx.Frees = tx.Frees[:0]
	tx.Mallocs = tx.Mallocs[:0]
	deferred := tx.OnCommit
	tx.OnCommit = nil
	panic(waitSignal{
		v:            v,
		w:            w,
		wrote:        wrote,
		deferred:     deferred,
		writeOrecs:   append([]uint32(nil), tx.WriteOrecs...),
		writeStripes: append([]uint32(nil), tx.WriteStripes...),
	})
}

type waitSignal struct {
	v        *Var
	w        *waiter
	wrote    bool
	deferred []func()

	// writeOrecs/writeStripes carry the punctuation commit's captured
	// write set to the post-commit wake scan in Handle.
	writeOrecs   []uint32
	writeStripes []uint32
}

// Handle accounts for the punctuation commit, runs the transaction's
// deferred signals, sleeps, and resumes the block from the top.
func (s waitSignal) Handle(tx *tm.Tx) tm.Outcome {
	sys := tx.Sys
	if s.wrote {
		tx.Thr.Stat.Commits.Add(1)
	} else {
		tx.Thr.Stat.ROCommits.Add(1)
	}
	for _, f := range s.deferred {
		f()
	}
	if s.wrote && sys.PostCommit != nil {
		sys.PostCommit(tx.Thr, s.writeOrecs, s.writeStripes)
	}
	sys.SemWait(s.w.s)
	// Withdraw the queue entry if a stale token woke us before a
	// signaller popped it. Leaving it behind would let a later Signal be
	// spent on a "ghost" waiter that is no longer sleeping — a lost wakeup
	// for whoever should have received that signal.
	s.v.dequeueSpecific(s.w)
	tx.Attempts = 0
	return tm.OutcomeRetryNow
}

// Signal wakes one queued waiter, deferred until tx commits.
func (v *Var) Signal(tx *tm.Tx) {
	tx.OnCommit = append(tx.OnCommit, v.SignalNow)
}

// Broadcast wakes all queued waiters, deferred until tx commits.
func (v *Var) Broadcast(tx *tm.Tx) {
	tx.OnCommit = append(tx.OnCommit, v.BroadcastNow)
}

// SignalNow wakes one queued waiter immediately (non-transactional use).
func (v *Var) SignalNow() {
	if w := v.popOne(); w != nil {
		w.s.Signal()
	}
}

// BroadcastNow wakes all queued waiters immediately (non-transactional use).
func (v *Var) BroadcastNow() {
	for _, w := range v.popAll() {
		w.s.Signal()
	}
}
