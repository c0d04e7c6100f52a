package core_test

// Tests for the cost of a sleep cycle: a Deschedule allocates nothing — the
// thread reuses its sleep record, whose slots, waitset and WaitPred
// arguments live inline while they are small; the record is itself the
// Signal, and the waking commit batches semaphores on its stack — and a
// waiter whose sets outgrow the inline storage still sleeps and wakes
// exactly once. Run under -race in CI: the owner writes the record before
// the waiter is listed, and stale scanners read it.

import (
	"runtime"
	"testing"
	"time"

	"tmsync/internal/buffer"
	"tmsync/internal/core"
	"tmsync/internal/mech"
	"tmsync/internal/tm"
)

// pingPong passes rounds values from one thread to another and back over
// two capacity-1 buffers under mechanism m, so that nearly every Put and
// Get finds its buffer in the wrong state and sleeps.
func pingPong(t *testing.T, m mech.Mechanism, a, b *tm.Thread, req, resp *buffer.TMBuffer, rounds int) {
	t.Helper()
	done := make(chan uint64, 1)
	go func() {
		var sum uint64
		for i := 0; i < rounds; i++ {
			v := req.GetMech(b, m)
			sum += v
			resp.PutMech(b, m, v)
		}
		done <- sum
	}()
	var got uint64
	for i := 1; i <= rounds; i++ {
		req.PutMech(a, m, uint64(i))
		got += resp.GetMech(a, m)
	}
	want := uint64(rounds) * uint64(rounds+1) / 2
	if sum := <-done; sum != want || got != want {
		t.Fatalf("%v: responder summed %d, requester %d; want %d", m, sum, got, want)
	}
}

// TestSleepCycleAllocatesOnce runs a ping-pong on every engine under each
// Deschedule mechanism (and Retry-Orig on the STM engines) and holds the
// heap objects allocated process-wide to a small fixed slack — the
// responder goroutine, its channel, the runtime's own, and the rare fresh
// sleep record a thread takes while a stale wake scan still holds its own —
// whatever the number of deschedules: a sleep cycle allocates nothing. A
// parked goroutine may cost the runtime a sudog while its per-P caches
// warm up, so a measurement over the slack is retried: an allocation the
// sleep cycle itself makes shows in every one.
func TestSleepCycleAllocatesOnce(t *testing.T) {
	const rounds, slack, tries = 500, 32, 5
	mechs := map[string][]mech.Mechanism{}
	for _, e := range allEngines {
		mechs[e] = []mech.Mechanism{mech.Retry, mech.Await, mech.WaitPred}
	}
	for _, e := range stmEngines {
		mechs[e] = append(mechs[e], mech.RetryOrig)
	}
	for _, e := range allEngines {
		for _, m := range mechs[e] {
			t.Run(e+"/"+string(m), func(t *testing.T) {
				sys, _ := newSys(e)
				a, b := sys.NewThread(), sys.NewThread()
				req, resp := buffer.NewTM(1), buffer.NewTM(1)
				pingPong(t, m, a, b, req, resp, rounds) // size the descriptors' logs
				var mallocs, desched uint64
				for range tries {
					before := sys.Stats.Sum().Deschedules
					var ms0, ms1 runtime.MemStats
					runtime.ReadMemStats(&ms0)
					pingPong(t, m, a, b, req, resp, rounds)
					runtime.ReadMemStats(&ms1)
					desched = sys.Stats.Sum().Deschedules - before
					mallocs = ms1.Mallocs - ms0.Mallocs
					if mallocs <= slack {
						return
					}
				}
				t.Errorf("%d heap objects for %d deschedules (want at most %d), in each of %d runs", mallocs, desched, slack, tries)
			})
		}
	}
}

// sleepsAndWakesOnce runs body on a fresh thread, which must sleep; then
// commits wrong (which must not wake a value-based waiter: nil skips it)
// and right, after which the thread must finish having slept and woken
// exactly once.
func sleepsAndWakesOnce(t *testing.T, sys *tm.System, cs *core.CondSync, body func(tx *tm.Tx), wrong, right func(tx *tm.Tx)) {
	t.Helper()
	thr := sys.NewThread()
	done := make(chan struct{})
	go func() {
		defer close(done)
		thr.Atomic(body)
	}()
	waitCond(t, "waiter asleep", func() bool { return cs.WaitingLen() == 1 })
	writer := sys.NewThread()
	if wrong != nil {
		writer.Atomic(wrong)
		select {
		case <-done:
			t.Fatal("woke on a value that does not satisfy it")
		case <-time.After(50 * time.Millisecond):
		}
	}
	writer.Atomic(right)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("never woke")
	}
	if st := sys.Stats.Sum(); st.Deschedules != 1 || st.Wakeups != 1 {
		t.Errorf("deschedules=%d wakeups=%d, want 1 and 1", st.Deschedules, st.Wakeups)
	}
	if n := cs.WaitingLen(); n != 0 {
		t.Errorf("%d waiters left listed", n)
	}
}

// spillWords is more words, on pairwise distinct stripes and so distinct
// orecs, than a Waiter holds inline: slots, shards and waitset all spill.
const spillWords = 6

// TestSleepSpillRetryWaitset: a Retry waitset of spillWords entries.
func TestSleepSpillRetryWaitset(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		words := disjointStripeAddrs(t, sys, spillWords)
		body := func(tx *tm.Tx) {
			var sum uint64
			for _, w := range words {
				sum += tx.Read(w)
			}
			if sum == 0 {
				core.Retry(tx)
			}
		}
		last := words[spillWords-1]
		sleepsAndWakesOnce(t, sys, cs, body,
			func(tx *tm.Tx) { tx.Write(last, 0) }, // a silent store
			func(tx *tm.Tx) { tx.Write(last, 1) })
	})
}

// TestSleepSpillRetryOrigReadSet: a Retry-Orig read set of spillWords
// orecs. Sharing an orec is its wake decision, so any store wakes it.
func TestSleepSpillRetryOrigReadSet(t *testing.T) {
	forEach(t, stmEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		words := disjointStripeAddrs(t, sys, spillWords)
		body := func(tx *tm.Tx) {
			var sum uint64
			for _, w := range words {
				sum += tx.Read(w)
			}
			if sum == 0 {
				core.RetryOrig(tx)
			}
		}
		last := words[spillWords-1]
		sleepsAndWakesOnce(t, sys, cs, body, nil, func(tx *tm.Tx) { tx.Write(last, 1) })
	})
}

// TestSleepSpillWaitPredArgs: WaitPred with more arguments than the waiter
// holds inline; the predicate sees every one of them.
func TestSleepSpillWaitPredArgs(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var x uint64
		sumIs := func(tx *tm.Tx, args []uint64) bool {
			var sum uint64
			for _, a := range args {
				sum += a
			}
			return tx.Read(&x) == sum
		}
		body := func(tx *tm.Tx) {
			if tx.Read(&x) != 15 {
				core.WaitPred(tx, sumIs, 1, 2, 3, 4, 5)
			}
		}
		sleepsAndWakesOnce(t, sys, cs, body,
			func(tx *tm.Tx) { tx.Write(&x, 5) }, // the last argument alone
			func(tx *tm.Tx) { tx.Write(&x, 15) })
	})
}
