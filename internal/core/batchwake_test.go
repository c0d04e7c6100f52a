package core_test

// Regression tests for the batched post-commit wakeup path, Retry-Orig
// sleepers in the sharded waiter index, and the stale-token /
// clobbered-capture wakeup races. Run under -race in CI: the per-commit
// signal batch, the asleep claim CAS — made on a snapshot, outside the
// shard lock — and Retry-Orig's list-then-validate protocol are exactly
// what the race detector should vet.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmsync/internal/core"
	"tmsync/internal/tm"
)

// TestStaleTokenDoesNotCauseSpuriousWakeup seeds a waiter's semaphore
// with a stale token (modelling a claim-winning waker from an earlier
// sleep cycle whose batched signal landed late) before the waiter
// deschedules. The drain at the start of the sleep cycle must discard the
// token: the waiter must stay asleep — with a false predicate it must not
// wake even once — until a real write establishes its precondition.
func TestStaleTokenDoesNotCauseSpuriousWakeup(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var flag uint64
		thr := sys.NewThread()
		thr.Sem.Signal() // stale token from a "previous cycle"
		done := make(chan struct{})
		go func() {
			defer close(done)
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&flag) == 0 {
					core.Retry(tx)
				}
			})
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
		time.Sleep(100 * time.Millisecond)
		if got := sys.Stats.Sum().Wakeups; got != 0 {
			t.Errorf("stale token caused %d spurious wakeup(s); it should have been drained", got)
		}
		if got := sys.Stats.Sum().Deschedules; got != 1 {
			t.Errorf("deschedules = %d, want 1 (no futile re-sleep cycles)", got)
		}
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 1) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter never woke after the real write")
		}
	})
}

// TestStaleTokenDoesNotCauseSpuriousWakeupRetryOrig is the same reproducer
// for the Retry-Orig sleep path ((*origSignal).Handle).
func TestStaleTokenDoesNotCauseSpuriousWakeupRetryOrig(t *testing.T) {
	forEach(t, stmEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var flag uint64
		thr := sys.NewThread()
		thr.Sem.Signal() // stale token
		done := make(chan struct{})
		go func() {
			defer close(done)
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&flag) == 0 {
					core.RetryOrig(tx)
				}
			})
		}()
		waitCond(t, "orig waiter registered", func() bool { return cs.WaitingLen() == 1 })
		time.Sleep(100 * time.Millisecond)
		if got := sys.Stats.Sum().Wakeups; got != 0 {
			t.Errorf("stale token caused %d spurious wakeup(s); it should have been drained", got)
		}
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 1) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("orig waiter never woke after the real write")
		}
		waitCond(t, "index drained", func() bool { return cs.WaitingLen() == 0 })
	})
}

// TestOnCommitTransactionDoesNotShrinkWakeScan is the lost-wakeup
// reproducer for the OnCommit clobbering window: a deferred commit
// callback that runs its own (committing) transaction on the same thread
// must not shrink the outer writer's post-commit wake scan. The waiter
// sleeps on a word in one stripe; the writer writes that word and defers
// a callback that commits a write to a word in a different stripe. Before
// the capture hardening, the callback's commit overwrote the thread's
// recorded write set, the outer wake scan visited only the callback's
// stripe, and the waiter wedged.
func TestOnCommitTransactionDoesNotShrinkWakeScan(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		addrs := disjointStripeAddrs(t, sys, 2)
		awaited, other := addrs[0], addrs[1]
		done := make(chan struct{})
		go func() {
			defer close(done)
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(awaited) == 0 {
					core.Await(tx, awaited)
				}
			})
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })

		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) {
			tx.Write(awaited, 1)
			tx.OnCommit = append(tx.OnCommit, func() {
				writer.Atomic(func(inner *tm.Tx) { inner.Write(other, 1) })
			})
		})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("lost wakeup: the OnCommit callback's commit clobbered the outer writer's wake scan")
		}
	})
}

// TestBatchedSignalsExactlyOncePerCommit parks several waiters on the
// same word and releases them with a single commit: every claimable
// waiter must be signalled exactly once, all signals must flow through
// the per-commit batch, and no stray token may remain buffered on any
// waiter's semaphore afterwards. The waiters use an instrumented
// predicate so the test can wait until every waiter has finished its
// published double-check — i.e. is past the self-claim window and
// committed to sleeping — before the writer commits; otherwise a waiter
// caught between insert and double-check could legally claim its own
// wakeup and the exact batch count would be racy.
func TestBatchedSignalsExactlyOncePerCommit(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		const waiters = 5
		var word uint64
		var evals atomic.Uint64
		wordSet := func(tx *tm.Tx, _ []uint64) bool {
			evals.Add(1)
			return tx.Read(&word) != 0
		}
		thrs := make([]*tm.Thread, waiters)
		for i := range thrs {
			thrs[i] = sys.NewThread()
		}
		var woke atomic.Uint64
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(thr *tm.Thread) {
				defer wg.Done()
				thr.Atomic(func(tx *tm.Tx) {
					if tx.Read(&word) == 0 {
						core.WaitPred(tx, wordSet)
					}
				})
				woke.Add(1)
			}(thrs[i])
		}
		// Each waiter's deschedule evaluates the predicate once in its
		// double-check; word is still 0, so every check fails and the
		// waiter proceeds to sleep. evals >= waiters with all still
		// published means all are past the self-claim window.
		waitCond(t, "all waiters asleep", func() bool {
			return evals.Load() >= waiters && cs.WaitingLen() == waiters
		})

		batchedBefore := sys.Stats.Sum().BatchedSignals
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&word, 1) })

		// The PostCommit hook completes before Atomic returns, so the
		// batch for this commit has been issued in full here.
		delta := sys.Stats.Sum().BatchedSignals - batchedBefore
		if delta != waiters {
			t.Errorf("commit batched %d signals, want exactly %d (one per claimable waiter)", delta, waiters)
		}
		wg.Wait()
		if got := woke.Load(); got != waiters {
			t.Fatalf("%d waiters completed, want %d", got, waiters)
		}
		waitCond(t, "index drained", func() bool { return cs.WaitingLen() == 0 })
		for i, thr := range thrs {
			if thr.Sem.TryDrain() {
				t.Errorf("waiter %d finished with a stray buffered token (double signal)", i)
			}
		}
	})
}

// TestOrigShardedTokenRing circulates one token around a ring of
// Retry-Orig workers under -race: every hand-off commit must wake exactly
// the successor through the sharded waiter index, with no lost wakeup at
// any point. The final token position and the index's emptiness pin
// conservation.
func TestOrigShardedTokenRing(t *testing.T) {
	forEach(t, stmEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		const workers = 4
		passes := 50
		if testing.Short() {
			passes = 10
		}
		var slots [workers]uint64
		slots[0] = 1 // the token
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				thr := sys.NewThread()
				next := (i + 1) % workers
				for p := 0; p < passes; p++ {
					thr.Atomic(func(tx *tm.Tx) {
						if tx.Read(&slots[i]) == 0 {
							core.RetryOrig(tx)
						}
						tx.Write(&slots[i], 0)
						tx.Write(&slots[next], tx.Read(&slots[next])+1)
					})
				}
			}(i)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("token ring wedged: a Retry-Orig sleeper lost its wakeup")
		}
		if slots[0] != 1 {
			t.Errorf("token did not return to slot 0: %v", slots)
		}
		for i := 1; i < workers; i++ {
			if slots[i] != 0 {
				t.Errorf("slot %d = %d, want 0 (token duplicated or stranded)", i, slots[i])
			}
		}
		waitCond(t, "index drained", func() bool { return cs.WaitingLen() == 0 })
	})
}
