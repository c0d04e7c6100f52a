package core

import (
	"runtime"
	"testing"
	"time"

	"tmsync/internal/locktable"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// TestEmptyShardRetryOrigPublishesLengthBeforeValidating drives the one
// interleaving the Retry-Orig half of the empty-shard guard must survive:
// a writer that commits to the sleeper's read set after the sleeper took
// its shard locks and before it has settled whether it sleeps. The
// hook parks the sleeper in that window until the writer's orecs are
// released. With the shard length stored first, the writer either finds
// it non-zero and waits for the lock, or — as here — its version bump is
// what the validation then reads, and the sleeper restarts. Were the
// length stored after the validation, the sleeper would validate the old
// version, the writer would publish and skip the still-empty shard, and
// the waiter would sleep with nobody left to wake it: this test times out.
func TestEmptyShardRetryOrigPublishesLengthBeforeValidating(t *testing.T) {
	for name, mk := range map[string]func(*tm.System) tm.Engine{"eager": eager.New, "lazy": lazy.New} {
		t.Run(name, func(t *testing.T) {
			sys := tm.NewSystem(tm.Config{}, mk)
			cs := Enable(sys)
			var flag uint64
			idx := sys.Table.IndexOf(&flag)
			before := sys.Table.Get(idx)

			hookRuns := 0
			writerDone := make(chan struct{})
			cs.origPublished = func() {
				hookRuns++
				if hookRuns > 1 {
					return
				}
				go func() {
					defer close(writerDone)
					sys.NewThread().Atomic(func(tx *tm.Tx) { tx.Write(&flag, 1) })
				}()
				for {
					if w := sys.Table.Get(idx); w != before && !locktable.Locked(w) {
						return
					}
					runtime.Gosched()
				}
			}

			sleeperDone := make(chan struct{})
			go func() {
				defer close(sleeperDone)
				sys.NewThread().Atomic(func(tx *tm.Tx) {
					if tx.Read(&flag) == 0 {
						RetryOrig(tx)
					}
				})
			}()
			for _, ch := range []chan struct{}{sleeperDone, writerDone} {
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Fatal("lost wakeup: a write that landed between the length publication and the validation was missed")
				}
			}
			if hookRuns != 1 {
				t.Errorf("sleeper reached the registry %d times, want once (the restart must see the write)", hookRuns)
			}
			if n := cs.WaitingLen(); n != 0 {
				t.Errorf("%d waiters left listed", n)
			}
			for i := range cs.shards {
				if n := cs.shards[i].n.Load(); n != 0 {
					t.Errorf("shard %d length reads %d after the failed validation undid the insert", i, n)
				}
			}
		})
	}
}

// TestEmptyShardLengthsTrackLists pins n == len(waiters) on every shard
// and the unindexed list across insert and remove. Each listed waiter is
// the sleep record of its own thread, as in a real run: a thread sleeps
// on one predicate at a time. Every indexed waiter sleeps on a word of
// stripe 0 and one of stripe 1, so those two shards list several waiters
// each and removal takes waiters from the middle of a list.
func TestEmptyShardLengthsTrackLists(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, eager.New)
	cs := Enable(sys)
	check := func(when string) {
		t.Helper()
		for i := range cs.shards {
			if sh := &cs.shards[i]; int(sh.n.Load()) != len(sh.waiters) {
				t.Errorf("%s: waiter shard %d: n=%d, list has %d", when, i, sh.n.Load(), len(sh.waiters))
			}
		}
		if sh := &cs.unindexed; int(sh.n.Load()) != len(sh.waiters) {
			t.Errorf("%s: unindexed: n=%d, list has %d", when, sh.n.Load(), len(sh.waiters))
		}
	}
	words := make([]uint64, 4096)
	var on [2][]uint32 // orec slots of words on stripes 0 and 1
	for i := range words {
		idx := sys.Table.IndexOf(&words[i])
		if s := sys.Table.StripeOf(idx); s < 2 {
			on[s] = append(on[s], idx)
		}
	}
	if len(on[0]) < 8 || len(on[1]) < 8 {
		t.Fatalf("found %d and %d words on stripes 0 and 1, want 8 each", len(on[0]), len(on[1]))
	}
	var ws []*Waiter
	for i := 0; i < 8; i++ {
		w := cs.newWaiter(&sys.NewThread().Tx)
		if i%4 != 3 { // otherwise no slots: unindexed
			w.slots = append(w.slots, on[0][i], on[1][i])
			w.indexSlots("test")
		}
		w.asleep.Store(true)
		cs.insert(w)
		ws = append(ws, w)
	}
	check("after insert")
	for _, w := range ws {
		cs.remove(w)
	}
	check("after remove")
	if n := cs.WaitingLen(); n != 0 {
		t.Errorf("%d waiters left", n)
	}
}
