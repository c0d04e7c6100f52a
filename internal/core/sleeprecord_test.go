package core

import (
	"sync/atomic"
	"testing"

	"tmsync/internal/stm/eager"
	"tmsync/internal/tm"
)

// TestSleepRecordStaleScanBlocksReuse drives the window the sleep record's
// reference count closes: a wake scan gathers a waiter under its shard lock,
// then, before the scan examines it, the owner is woken and withdrawn by
// another path and starts its next sleep cycle. Once the scan has let go of
// the record the owner reuses it; while the scan still holds it the owner
// must take a different record, and the stale scan must neither claim nor
// signal the new cycle, although the new cycle's wake test holds.
func TestSleepRecordStaleScanBlocksReuse(t *testing.T) {
	sys := tm.NewSystem(tm.Config{}, eager.New)
	cs := Enable(sys)
	owner, waker := sys.NewThread(), sys.NewThread()
	tx := &owner.Tx
	var x uint64
	slot := sys.Table.IndexOf(&x)

	// list publishes one Retry cycle of the owner, asleep on x's value.
	list := func() *Waiter {
		w := cs.newWaiter(tx)
		w.slots = append(w.slots, slot)
		w.indexSlots("test")
		w.Waitset = append(w.Waitset, tm.AddrVal{Addr: &x, Val: atomic.LoadUint64(&x)})
		w.asleep.Store(true)
		cs.insert(w)
		return w
	}
	// staleScan gathers the listed waiter as a committing writer of x does,
	// then has another path claim and withdraw it, as sleep does once woken.
	staleScan := func(w *Waiter) []*Waiter {
		ws := cs.shards[w.shards[0]].snapshot(nil, []uint32{slot})
		if len(ws) != 1 || ws[0] != w {
			t.Fatalf("scan gathered %d waiters, want the listed one", len(ws))
		}
		if !w.asleep.CompareAndSwap(true, false) {
			t.Fatal("listed waiter not asleep")
		}
		cs.remove(w)
		return ws
	}

	// The scan lets go first: the owner's next cycle reuses the record.
	w := list()
	cs.wakeSome(waker, staleScan(w))
	if n := w.refs.Load(); n != 0 {
		t.Fatalf("refs = %d after the scan finished, want 0", n)
	}
	if next := cs.newWaiter(tx); next != w {
		t.Fatal("no scan holds the sleep record, yet the next cycle did not reuse it")
	}

	// The scan still holds the record when the owner's next cycle starts.
	stale := staleScan(list())
	next := list()
	if next == w {
		t.Fatal("the next cycle reused a sleep record a wake scan still holds")
	}
	if (*Waiter)(tx.SleepRecord) != next {
		t.Fatal("the fresh record did not become the thread's sleep record")
	}
	atomic.StoreUint64(&x, 1) // the new cycle's wake test now holds
	cs.wakeSome(waker, stale)
	if !next.asleep.Load() {
		t.Error("the stale scan claimed the new sleep cycle")
	}
	if owner.Sem.TryDrain() {
		t.Error("the stale scan signalled the owner")
	}
	if n := w.refs.Load(); n != 0 {
		t.Errorf("refs = %d after the stale scan finished, want 0", n)
	}
	next.asleep.Store(false)
	cs.remove(next)
	if again := cs.newWaiter(tx); again != next {
		t.Error("the thread's new sleep record was not reused once free")
	}
	if n := cs.WaitingLen(); n != 0 {
		t.Errorf("%d waiters left listed", n)
	}
}
