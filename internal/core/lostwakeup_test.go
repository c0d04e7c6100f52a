package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmsync/internal/core"
	"tmsync/internal/tm"
)

// lostWakeupRounds is the number of hand-offs TestLostWakeupStress
// performs per mechanism, split evenly over the mechanism's cells.
const lostWakeupRounds = 100_000

// TestLostWakeupStress is the stress test for the empty-shard guard: a
// committing writer skips a shard whose length reads 0 without taking its
// lock, so what used to be ordered by that lock — a waiter publishing
// itself against the commit that should wake it — is now ordered only by
// the length store and the double-check (Deschedule) or the validation
// (Retry-Orig). Two threads pass a turn word back and forth; each waits
// with the mechanism under test whenever it is not its turn, so nearly
// every round has one thread publishing while the other commits the write
// it waits for. A single lost wakeup leaves both asleep and the cell times
// out. Cells: every mechanism on every engine that supports it, on one
// stripe and on 64.
func TestLostWakeupStress(t *testing.T) {
	type wait func(tx *tm.Tx, turn *uint64, me uint64)
	mechs := []struct {
		name    string
		engines []string
		wait    wait
	}{
		{"retry", allEngines, func(tx *tm.Tx, _ *uint64, _ uint64) { core.Retry(tx) }},
		{"await", allEngines, func(tx *tm.Tx, turn *uint64, _ uint64) { core.Await(tx, turn) }},
		{"waitpred", allEngines, func(tx *tm.Tx, turn *uint64, me uint64) {
			core.WaitPred(tx, func(tx *tm.Tx, a []uint64) bool { return tx.Read(turn) == a[0] }, me)
		}},
		{"retry-orig", stmEngines, func(tx *tm.Tx, _ *uint64, _ uint64) { core.RetryOrig(tx) }},
	}
	cfgs := []struct {
		name string
		cfg  tm.Config
	}{
		{"stripes=1", tm.Config{Stripes: 1}},
		{"stripes=64", tm.Config{Stripes: 64}},
	}
	for _, m := range mechs {
		rounds := lostWakeupRounds / (len(m.engines) * len(cfgs))
		if testing.Short() {
			rounds /= 10
		}
		var slept uint64 // over the mechanism's cells
		for _, eng := range m.engines {
			for _, c := range cfgs {
				t.Run(fmt.Sprintf("%s/%s/%s", m.name, eng, c.name), func(t *testing.T) {
					sys, cs := newSysCfg(eng, c.cfg)
					var turn uint64
					var progress [2]atomic.Int64
					var wg sync.WaitGroup
					for me := uint64(0); me < 2; me++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							thr := sys.NewThread()
							for i := 0; i < rounds; i++ {
								thr.Atomic(func(tx *tm.Tx) {
									if tx.Read(&turn) != me {
										m.wait(tx, &turn, me)
									}
									tx.Write(&turn, 1-me)
								})
								progress[me].Add(1)
							}
						}()
					}
					done := make(chan struct{})
					go func() { wg.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(60 * time.Second):
						t.Fatalf("lost wakeup: both threads asleep after %d and %d of %d rounds (%d waiting)",
							progress[0].Load(), progress[1].Load(), rounds, cs.WaitingLen())
					}
					if n := cs.WaitingLen(); n != 0 {
						t.Errorf("%d waiters left registered", n)
					}
					slept += sys.Stats.Sum().Wakeups
				})
			}
		}
		// Retry re-executes once before it deschedules and mostly finds its
		// turn has come; the other mechanisms sleep on nearly every round.
		if slept == 0 {
			t.Errorf("%s: no round in any cell ever slept: the cells exercised nothing", m.name)
		}
	}
}

// TestEmptyShardWaiterFreeCommitAllocatesNothing: with nobody waiting, a
// writer commit — four reads, two writes, the post-commit wake scan over
// its stripes and the unindexed list — allocates nothing on any engine. (htm and hybrid used to copy the thread list
// inside every hardware commit.)
func TestEmptyShardWaiterFreeCommitAllocatesNothing(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		thr := sys.NewThread()
		sys.NewThread() // a second registered thread for the hardware layer to walk past
		words := disjointStripeAddrs(t, sys, 6)
		body := func(tx *tm.Tx) {
			s := tx.Read(words[0]) + tx.Read(words[1]) + tx.Read(words[2]) + tx.Read(words[3])
			tx.Write(words[4], s+1)
			tx.Write(words[5], s+2)
		}
		thr.Atomic(body) // size the descriptor's logs once
		if n := testing.AllocsPerRun(500, func() { thr.Atomic(body) }); n != 0 {
			t.Errorf("waiter-free writer commit allocates %v times", n)
		}
		if st := sys.Stats.Sum(); st.Commits != 502 || st.WakeChecks != 0 {
			t.Errorf("commits=%d wake_checks=%d, want 502 writer commits that visited no waiter", st.Commits, st.WakeChecks)
		}
	})
}

// TestStatsShardsSnapshotSumsThreads checks the per-thread stat shards
// against ground truth: N threads each perform a known number of writer
// commits, read-only commits, explicit aborts and deschedules, and
// Snapshot must report exactly their sum — while a sampler calling
// Snapshot as the threads run never sees a total fall or exceed the truth,
// and always sees aborts equal to the sum of its reasons.
func TestStatsShardsSnapshotSumsThreads(t *testing.T) {
	const threads, iters = 4, 1500
	const abortEvery, deschedEvery, roEvery = 7, 11, 3
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		always := func(*tm.Tx, []uint64) bool { return true }
		words := disjointStripeAddrs(t, sys, threads)
		var want struct{ commits, ro, explicit, desched uint64 }
		var samples atomic.Int64
		var wg sync.WaitGroup
		for n := 0; n < threads; n++ {
			for i := 0; i < iters; i++ {
				want.commits++
				if i%abortEvery == 0 {
					want.explicit++
				}
				if i%deschedEvery == 0 {
					want.desched++
				}
				if i%roEvery == 0 {
					want.ro++
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < iters; i++ {
					if i%(iters/3) == 0 {
						// Let the sampler look at least once per third.
						for n := samples.Load(); samples.Load() == n; {
							runtime.Gosched()
						}
					}
					aborted, waited := i%abortEvery != 0, i%deschedEvery != 0
					thr.Atomic(func(tx *tm.Tx) {
						if !aborted {
							aborted = true
							tx.Abort(tm.AbortExplicit)
						}
						if !waited {
							// A hardware attempt first restarts in software;
							// the deschedule happens on the attempt after.
							waited = tx.Mode != tm.ModeHW
							core.WaitPred(tx, always)
						}
						tx.Write(words[n], tx.Read(words[n])+1)
					})
					if i%roEvery == 0 {
						thr.Atomic(func(tx *tm.Tx) { tx.Read(words[n]) })
					}
				}
			}()
		}

		stop := make(chan struct{})
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			prev := sys.Stats.Snapshot()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := sys.Stats.Snapshot()
				samples.Add(1)
				for k, v := range cur {
					if v < prev[k] {
						t.Errorf("%s fell from %d to %d between two snapshots", k, prev[k], v)
					}
				}
				if sum := cur["conflict_aborts"] + cur["capacity_aborts"] + cur["spurious_aborts"] + cur["explicit_aborts"]; cur["aborts"] != sum {
					t.Errorf("aborts=%d but its reasons sum to %d", cur["aborts"], sum)
				}
				if cur["commits"] > want.commits || cur["explicit_aborts"] > want.explicit || cur["deschedules"] > want.desched {
					t.Errorf("snapshot ahead of the truth: %v", cur)
				}
				prev = cur
			}
		}()
		wg.Wait()
		close(stop)
		<-stopped

		snap := sys.Stats.Snapshot()
		for k, w := range map[string]uint64{"commits": want.commits, "explicit_aborts": want.explicit, "deschedules": want.desched} {
			if snap[k] != w {
				t.Errorf("%s = %d, want %d", k, snap[k], w)
			}
		}
		// Double-check transactions of the deschedules commit read-only too.
		if snap["ro_commits"] < want.ro+want.desched {
			t.Errorf("ro_commits = %d, want at least %d", snap["ro_commits"], want.ro+want.desched)
		}
		var byHand uint64
		for _, thr := range sys.Threads() {
			byHand += thr.Stat.Commits.Load()
		}
		if byHand != snap["commits"] {
			t.Errorf("shards sum to %d commits, Snapshot says %d", byHand, snap["commits"])
		}
		if len(snap) != 16 {
			t.Errorf("Snapshot has %d keys, want 16", len(snap))
		}
	})
}
