package core_test

// Reproducer for the stale-token self-clear path of the Deschedule sleep
// cycle ((*deschedSignal).Handle).
//
// The fragile window: a waiter consumes a STALE token (a claim-winning
// waker's batched signal from a cycle the thread already departed), so no
// waker has CASed `asleep` for THIS cycle — the waiter must clear the
// claim itself, after the Wait, before withdrawing — and the thread
// immediately re-deschedules, storing `asleep = true` on a fresh waiter
// for the new cycle. Get the ordering wrong — e.g. perform the self-clear
// BEFORE the Wait consumes the token, i.e. before the waker's claim CAS
// can be arbitrated — and a claim-winning waker's CAS fails, wedging the
// handshake. This test drives that interleave hard and was verified to
// fail (wedge within the timeout) with the self-clear reordered ahead of
// the Wait/CAS arbitration.
//
// Run under -race in CI: the asleep claim CAS, the shard locks, and the
// semaphore hand-off are exactly what the detector vets.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmsync/internal/core"
	"tmsync/internal/tm"
)

func TestStaleTokenSelfClear(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	forEach(t, allEngines,
		func(t *testing.T, sys *tm.System, cs *core.CondSync) {
			var flag uint64
			waiter := sys.NewThread()
			writer := sys.NewThread()
			var stop atomic.Bool
			var wg sync.WaitGroup

			// Prankster: inject a bounded burst of stale tokens into the
			// waiter's semaphore, modelling late batched signals from
			// departed sleep cycles. Every one the waiter consumes
			// mid-sleep is a spurious wakeup whose claim no waker owns —
			// the self-clear path. The burst is finite on purpose: most of
			// the rounds must make progress on REAL wakeups, so a
			// mutation that loses them (e.g. the self-clear performed
			// before the Wait, ahead of the waker's claim CAS) wedges the
			// handshake instead of limping along on injected tokens.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10 && !stop.Load(); i++ {
					waiter.Sem.Signal()
					time.Sleep(time.Millisecond)
				}
			}()

			done := make(chan struct{})
			go func() {
				defer close(done)
				var inner sync.WaitGroup
				inner.Add(2)
				go func() { // waiter: consume each round's token
					defer inner.Done()
					for r := 0; r < rounds; r++ {
						waiter.Atomic(func(tx *tm.Tx) {
							if tx.Read(&flag) == 0 {
								core.Retry(tx)
							}
							tx.Write(&flag, 0)
						})
					}
				}()
				go func() { // writer: produce a token once the last was taken
					defer inner.Done()
					for r := 0; r < rounds; r++ {
						for {
							var v uint64
							writer.Atomic(func(tx *tm.Tx) { v = tx.Read(&flag) })
							if v == 0 {
								break
							}
							time.Sleep(20 * time.Microsecond)
						}
						// Give the waiter time to publish and genuinely
						// sleep before producing: without this the waiter's
						// double-check usually wins and the rounds never
						// exercise the Wait/self-clear path at all.
						time.Sleep(200 * time.Microsecond)
						writer.Atomic(func(tx *tm.Tx) { tx.Write(&flag, 1) })
					}
				}()
				inner.Wait()
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("handshake wedged: a stale-token wakeup lost its claim arbitration")
			}
			stop.Store(true)
			wg.Wait()
			if flag != 0 {
				t.Errorf("flag = %d after the final round, want 0", flag)
			}
			waitCond(t, "waiter index drained", func() bool { return cs.WaitingLen() == 0 })
			// A healthy share of rounds must involve a genuine sleep, or
			// the test proves nothing about the Wait/self-clear
			// arbitration. The hardware engines' software re-execution
			// legitimately discovers the precondition without sleeping on
			// some rounds, so the floor is deliberately loose.
			if got := sys.Stats.Sum().Deschedules; got < uint64(rounds)/6 {
				t.Errorf("only %d deschedules over %d rounds; the waiter barely slept", got, rounds)
			}
		})
}
