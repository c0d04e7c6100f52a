package core_test

// Tests for the per-stripe waiter index: a committing writer must visit
// (and wake) exactly the waiters whose waitsets overlap its write set's
// stripes — no lost wakeups, no thundering herd — while unindexed
// (WaitPred) waiters remain visible to every commit. Run under -race in
// CI: the index's shard locks and the wake CAS protocol are exactly what
// the race detector should vet.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmsync/internal/core"
	"tmsync/internal/tm"
)

// disjointStripeAddrs picks n word addresses that map to pairwise distinct
// orec-table stripes.
func disjointStripeAddrs(t *testing.T, sys *tm.System, n int) []*uint64 {
	t.Helper()
	backing := make([]uint64, 4096)
	used := make(map[uint32]bool)
	var out []*uint64
	for i := range backing {
		s := sys.Table.StripeOf(sys.Table.IndexOf(&backing[i]))
		if used[s] {
			continue
		}
		used[s] = true
		out = append(out, &backing[i])
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("found only %d of %d disjoint-stripe addresses", len(out), n)
	return nil
}

// TestWriterWakesExactlyOverlappingWaiters parks one waiter per stripe on
// disjoint stripes, then commits a single-address write: exactly the
// overlapping waiter must be visited and woken; the others must neither
// wake (no lost exclusivity) nor even be examined (no thundering herd).
func TestWriterWakesExactlyOverlappingWaiters(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		const waiters = 6
		addrs := disjointStripeAddrs(t, sys, waiters)
		if sys.Table.NumStripes() < waiters {
			t.Skipf("table has only %d stripes", sys.Table.NumStripes())
		}

		var woken [waiters]atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				thr := sys.NewThread()
				thr.Atomic(func(tx *tm.Tx) {
					if tx.Read(addrs[i]) == 0 {
						core.Await(tx, addrs[i])
					}
					woken[i].Store(true)
				})
			}(i)
		}
		waitCond(t, "all waiters asleep", func() bool { return cs.WaitingLen() == waiters })

		checksBefore := sys.Stats.Sum().WakeChecks
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(addrs[0], 1) })

		// The PostCommit hook runs on the committing thread before Atomic
		// returns, so the scan for this commit is complete here.
		delta := sys.Stats.Sum().WakeChecks - checksBefore
		if delta != 1 {
			t.Errorf("writer commit visited %d waiters; the stripe index should visit exactly the 1 overlapping waiter", delta)
		}
		waitCond(t, "overlapping waiter woken", func() bool { return woken[0].Load() })
		waitCond(t, "non-overlapping waiters still parked", func() bool { return cs.WaitingLen() == waiters-1 })
		for i := 1; i < waiters; i++ {
			if woken[i].Load() {
				t.Errorf("waiter %d woke without any write to its stripe", i)
			}
		}

		// Release the rest; every waiter must eventually wake (no lost
		// wakeups through the sharded index).
		for i := 1; i < waiters; i++ {
			writer.Atomic(func(tx *tm.Tx) { tx.Write(addrs[i], 1) })
		}
		wg.Wait()
		for i := range woken {
			if !woken[i].Load() {
				t.Fatalf("waiter %d never woke", i)
			}
		}
		if n := cs.WaitingLen(); n != 0 {
			t.Fatalf("waiter index not drained: %d", n)
		}
	})
}

// TestMultiStripeWaitsetRegistersOnEachStripe parks one waiter whose
// waitset spans two stripes; a write to either stripe alone must wake it.
func TestMultiStripeWaitsetRegistersOnEachStripe(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		for _, wake := range []int{0, 1} {
			addrs := disjointStripeAddrs(t, sys, 2)
			done := make(chan struct{})
			go func() {
				defer close(done)
				thr := sys.NewThread()
				thr.Atomic(func(tx *tm.Tx) {
					if tx.Read(addrs[0]) == 0 && tx.Read(addrs[1]) == 0 {
						core.Await(tx, addrs[0], addrs[1])
					}
				})
			}()
			waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
			writer := sys.NewThread()
			writer.Atomic(func(tx *tm.Tx) { tx.Write(addrs[wake], 1) })
			<-done
			waitCond(t, "index drained", func() bool { return cs.WaitingLen() == 0 })
		}
	})
}

// TestMultiStripeCommitExaminesEachWaiterOnce parks one Await waiter on
// each of four words on distinct stripes, then commits one transaction
// that writes all four. The scan derives the stripes it visits from the
// commit's write orecs: it must visit every one of them, so every waiter
// wakes, and examine each waiter exactly once.
func TestMultiStripeCommitExaminesEachWaiterOnce(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		const waiters = 4
		addrs := disjointStripeAddrs(t, sys, waiters)
		var done [waiters]<-chan struct{}
		for i, a := range addrs {
			done[i] = awaitSleeper(sys, a)
		}
		// Each waiter's double-check is a read-only commit: once all are
		// counted, no waiter can claim its own wakeup.
		waitCond(t, "all waiters asleep", func() bool {
			return cs.WaitingLen() == waiters && sys.Stats.Sum().ROCommits >= waiters
		})

		writer := sys.NewThread()
		checks, signals := scanCost(sys, func() {
			writer.Atomic(func(tx *tm.Tx) {
				for _, a := range addrs {
					tx.Write(a, 1)
				}
			})
		})
		if checks != waiters || signals != waiters {
			t.Errorf("one commit to %d words on distinct stripes: %d waiters examined, %d signalled, want %d and %d", waiters, checks, signals, waiters, waiters)
		}
		for i := range done {
			waitDone(t, fmt.Sprintf("waiter %d", i), done[i])
		}
		waitCond(t, "index drained", func() bool { return cs.WaitingLen() == 0 })
	})
}

// TestOrigWaiterWakesDespitePrecedingIndexedScan: the driver captures the
// writer's lock set and hands it to the PostCommit hook, so the nested
// read-only predicate transactions that wakeWaiters runs on the same
// thread cannot disturb it. With a Deschedule waiter and a Retry-Orig
// waiter parked on the same word, whichever the scan examines second must
// still see the intersection and wake.
func TestOrigWaiterWakesDespitePrecedingIndexedScan(t *testing.T) {
	forEach(t, stmEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var word uint64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&word) == 0 {
					core.Await(tx, &word)
				}
			})
		}()
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(&word) == 0 {
					core.RetryOrig(tx)
				}
			})
		}()
		waitCond(t, "both waiters asleep", func() bool { return cs.WaitingLen() == 2 })
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(&word, 1) })
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter wedged: the writer's lock set was lost before the scan reached it")
		}
	})
}

// TestUnindexedWaiterVisitedByEveryCommit: a WaitPred waiter has no
// waitset, so it lives on the unindexed list and every committing writer
// must re-evaluate its predicate — even one whose write set shares no
// stripe with anything the predicate reads.
func TestUnindexedWaiterVisitedByEveryCommit(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		addrs := disjointStripeAddrs(t, sys, 2)
		flag, unrelated := addrs[0], addrs[1]
		done := make(chan struct{})
		go func() {
			defer close(done)
			thr := sys.NewThread()
			thr.Atomic(func(tx *tm.Tx) {
				if tx.Read(flag) == 0 {
					core.WaitPred(tx, func(tx *tm.Tx, _ []uint64) bool {
						return tx.Read(flag) != 0
					})
				}
			})
		}()
		waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })

		checksBefore := sys.Stats.Sum().WakeChecks
		writer := sys.NewThread()
		writer.Atomic(func(tx *tm.Tx) { tx.Write(unrelated, 7) })
		if sys.Stats.Sum().WakeChecks == checksBefore {
			t.Error("commit to an unrelated stripe skipped the unindexed waiter")
		}
		if cs.WaitingLen() != 1 {
			t.Fatal("unrelated commit woke the predicate waiter")
		}

		writer.Atomic(func(tx *tm.Tx) { tx.Write(flag, 1) })
		<-done
		waitCond(t, "index drained", func() bool { return cs.WaitingLen() == 0 })
	})
}
