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

// Var is a transaction-safe condition variable. The zero value is not
// usable; construct with New.
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

	// signalNow and broadcastNow are SignalNow and BroadcastNow bound
	// once, in New, so that deferring one to a commit allocates nothing.
	signalNow, broadcastNow func()
}

// waiter is one queued Wait: the punctuation its transaction commits with.
type waiter struct {
	v *Var
	s *sem.Sem
}

// New returns an empty condition variable.
func New() *Var {
	v := &Var{}
	v.signalNow, v.broadcastNow = v.SignalNow, v.BroadcastNow
	return v
}

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
	// The sequence bump may abort, so it precedes the enqueue: only the
	// commit can fail once the waiter is queued, and Withdraw covers that.
	tx.Write(&v.waitseq, tx.Read(&v.waitseq)+1)
	// Discard any token left over from an earlier sleep cycle (a ghost
	// waiter popped by a racing Signal after this thread withdrew, or a
	// late batched wakeup from a Deschedule cycle the thread departed)
	// before this waiter is enqueued and becomes signallable. The thread
	// holds no published waiter of any kind here, so a buffered token can
	// only be stale; consumed later by the sleep below, it would fire a
	// spurious wakeup with the condition unestablished.
	tx.Thr.Sem.TryDrain()
	w := &waiter{v: v, s: tx.Thr.Sem}
	v.enqueue(w)
	tx.CommitThen(w)
}

// Handle runs once the driver has committed the wait's transaction, its
// deferred signals and post-commit wake scan included: it sleeps, and the
// driver then resumes the block from the top.
func (w *waiter) Handle(tx *tm.Tx) {
	tx.Sys.SemWait(tx.Thr, w.s)
	// Withdraw the queue entry if a stale token woke us before a
	// signaller popped it. Leaving it behind would let a later Signal be
	// spent on a "ghost" waiter that is no longer sleeping — a lost wakeup
	// for whoever should have received that signal.
	w.Withdraw()
}

// Withdraw takes the waiter off the queue; the driver calls it when the
// wait's commit aborts, and the block re-executes. Leaving it queued would
// leak a stale waiter that a later Signal would consume.
func (w *waiter) Withdraw() { w.v.dequeueSpecific(w) }

// Signal wakes one queued waiter, deferred until tx commits.
func (v *Var) Signal(tx *tm.Tx) {
	tx.OnCommit = append(tx.OnCommit, v.signalNow)
}

// Broadcast wakes all queued waiters, deferred until tx commits.
func (v *Var) Broadcast(tx *tm.Tx) {
	tx.OnCommit = append(tx.OnCommit, v.broadcastNow)
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
