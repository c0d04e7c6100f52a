package txds_test

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tmsync/internal/core"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
	"tmsync/internal/txds"
)

func newSys(kind string) *tm.System {
	var sys *tm.System
	switch kind {
	case "eager":
		sys = tm.NewSystem(tm.Config{}, eager.New)
	case "lazy":
		sys = tm.NewSystem(tm.Config{}, lazy.New)
	case "htm":
		sys = tm.NewSystem(tm.Config{}, htm.New)
	case "hybrid":
		sys = tm.NewSystem(tm.Config{}, hybrid.New)
	}
	core.Enable(sys)
	return sys
}

var allEngines = []string{"eager", "lazy", "htm", "hybrid"}

func TestArenaAllocFree(t *testing.T) {
	sys := newSys("eager")
	thr := sys.NewThread()
	a := txds.NewArena(4, 2)
	var nodes []uint64
	thr.Atomic(func(tx *tm.Tx) {
		nodes = nodes[:0] // tolerate re-execution
		for i := 0; i < 4; i++ {
			n := a.TryAlloc(tx)
			if n == txds.Nil {
				t.Error("arena exhausted early")
			}
			nodes = append(nodes, n)
		}
		if a.TryAlloc(tx) != txds.Nil {
			t.Error("over-allocated")
		}
	})
	seen := map[uint64]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatalf("node %d allocated twice", n)
		}
		seen[n] = true
	}
	thr.Atomic(func(tx *tm.Tx) {
		for _, n := range nodes {
			a.Free(tx, n)
		}
		if a.FreeCount(tx) != 4 {
			t.Errorf("free count = %d", a.FreeCount(tx))
		}
	})
}

func TestArenaAbortUndoesAllocation(t *testing.T) {
	sys := newSys("lazy")
	thr := sys.NewThread()
	a := txds.NewArena(2, 2)
	tries := 0
	thr.Atomic(func(tx *tm.Tx) {
		tries++
		_ = a.Alloc(tx)
		if tries == 1 {
			tx.Abort(tm.AbortExplicit)
		}
	})
	thr.Atomic(func(tx *tm.Tx) {
		// One node used by the committed attempt; one must remain.
		if got := a.FreeCount(tx); got != 1 {
			t.Fatalf("free count = %d, want 1 (abort leaked a node)", got)
		}
	})
}

func TestArenaExhaustionBlocksUntilFree(t *testing.T) {
	sys := newSys("eager")
	a := txds.NewArena(1, 2)
	holder := sys.NewThread()
	var node uint64
	holder.Atomic(func(tx *tm.Tx) { node = a.Alloc(tx) })

	done := make(chan uint64, 1)
	go func() {
		thr := sys.NewThread()
		var n uint64
		thr.Atomic(func(tx *tm.Tx) { n = a.Alloc(tx) })
		done <- n
	}()
	select {
	case <-done:
		t.Fatal("allocation succeeded from an exhausted arena")
	case <-time.After(50 * time.Millisecond):
	}
	holder.Atomic(func(tx *tm.Tx) { a.Free(tx, node) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked allocator never woke after Free")
	}
}

func TestQueueFIFO(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			sys := newSys(kind)
			thr := sys.NewThread()
			q := txds.NewQueue(txds.NewArena(16, txds.QueueNodeWords))
			for i := uint64(1); i <= 10; i++ {
				q.Put(thr, i*i)
			}
			if q.Len(thr) != 10 {
				t.Fatalf("len = %d", q.Len(thr))
			}
			for i := uint64(1); i <= 10; i++ {
				if got := q.Take(thr); got != i*i {
					t.Fatalf("Take = %d, want %d", got, i*i)
				}
			}
			if q.Len(thr) != 0 {
				t.Fatalf("len = %d after drain", q.Len(thr))
			}
		})
	}
}

func TestQueueBlockingTake(t *testing.T) {
	sys := newSys("htm")
	q := txds.NewQueue(txds.NewArena(4, txds.QueueNodeWords))
	got := make(chan uint64, 1)
	go func() {
		thr := sys.NewThread()
		got <- q.Take(thr)
	}()
	select {
	case v := <-got:
		t.Fatalf("Take returned %d from an empty queue", v)
	case <-time.After(50 * time.Millisecond):
	}
	w := sys.NewThread()
	q.Put(w, 31)
	select {
	case v := <-got:
		if v != 31 {
			t.Fatalf("Take = %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Take never woke")
	}
}

func TestQueueConcurrentConservation(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			sys := newSys(kind)
			q := txds.NewQueue(txds.NewArena(8, txds.QueueNodeWords))
			const workers = 3
			const per = 500
			var wg sync.WaitGroup
			consumed := make([]map[uint64]bool, workers)
			for w := 0; w < workers; w++ {
				wg.Add(2)
				go func(id int) {
					defer wg.Done()
					thr := sys.NewThread()
					for i := 0; i < per; i++ {
						q.Put(thr, uint64(id*per+i)+1)
					}
				}(w)
				go func(id int) {
					defer wg.Done()
					thr := sys.NewThread()
					m := make(map[uint64]bool, per)
					for i := 0; i < per; i++ {
						m[q.Take(thr)] = true
					}
					consumed[id] = m
				}(w)
			}
			ch := make(chan struct{})
			go func() { wg.Wait(); close(ch) }()
			select {
			case <-ch:
			case <-time.After(60 * time.Second):
				t.Fatal("wedged")
			}
			all := make(map[uint64]bool)
			for _, m := range consumed {
				for v := range m {
					if all[v] {
						t.Fatalf("value %d consumed twice", v)
					}
					all[v] = true
				}
			}
			if len(all) != workers*per {
				t.Fatalf("consumed %d values, want %d", len(all), workers*per)
			}
		})
	}
}

func TestStackLIFO(t *testing.T) {
	sys := newSys("lazy")
	thr := sys.NewThread()
	s := txds.NewStack(txds.NewArena(8, txds.StackNodeWords))
	for i := uint64(1); i <= 5; i++ {
		s.Push(thr, i)
	}
	for i := uint64(5); i >= 1; i-- {
		if got := s.Pop(thr); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
}

func TestStackBlockingPop(t *testing.T) {
	sys := newSys("eager")
	s := txds.NewStack(txds.NewArena(4, txds.StackNodeWords))
	got := make(chan uint64, 1)
	go func() {
		thr := sys.NewThread()
		got <- s.Pop(thr)
	}()
	time.Sleep(20 * time.Millisecond)
	w := sys.NewThread()
	s.Push(w, 7)
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("Pop = %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Pop never woke")
	}
}

func TestMapBasics(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			sys := newSys(kind)
			thr := sys.NewThread()
			m := txds.NewMap(txds.NewArena(32, txds.MapNodeWords), 8)
			if !m.Put(thr, 1, 100) {
				t.Fatal("first Put not fresh")
			}
			if m.Put(thr, 1, 200) {
				t.Fatal("update reported fresh")
			}
			if v, ok := m.Get(thr, 1); !ok || v != 200 {
				t.Fatalf("Get = %d,%v", v, ok)
			}
			if _, ok := m.Get(thr, 2); ok {
				t.Fatal("phantom key")
			}
			if !m.Delete(thr, 1) {
				t.Fatal("Delete missed")
			}
			if m.Delete(thr, 1) {
				t.Fatal("double Delete succeeded")
			}
		})
	}
}

func TestMapCollidingKeys(t *testing.T) {
	// 2 buckets force chains; keys must remain distinct entries.
	sys := newSys("eager")
	thr := sys.NewThread()
	m := txds.NewMap(txds.NewArena(64, txds.MapNodeWords), 2)
	for k := uint64(1); k <= 40; k++ {
		m.Put(thr, k, k*3)
	}
	for k := uint64(1); k <= 40; k++ {
		if v, ok := m.Get(thr, k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	// Delete every other key and re-verify.
	for k := uint64(2); k <= 40; k += 2 {
		if !m.Delete(thr, k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	for k := uint64(1); k <= 40; k++ {
		_, ok := m.Get(thr, k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", k, ok, want)
		}
	}
}

func TestMapWaitForWakesOnlyOnKey(t *testing.T) {
	sys := newSys("hybrid")
	m := txds.NewMap(txds.NewArena(32, txds.MapNodeWords), 8)
	got := make(chan uint64, 1)
	go func() {
		thr := sys.NewThread()
		got <- m.WaitFor(thr, 42)
	}()
	time.Sleep(20 * time.Millisecond)
	w := sys.NewThread()
	for k := uint64(1); k <= 10; k++ {
		m.Put(w, k, k) // unrelated keys must not complete the wait
	}
	select {
	case v := <-got:
		t.Fatalf("WaitFor returned %d before the key existed", v)
	case <-time.After(50 * time.Millisecond):
	}
	m.Put(w, 42, 4242)
	select {
	case v := <-got:
		if v != 4242 {
			t.Fatalf("WaitFor = %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor never woke on its key")
	}
}

// TestMapMatchesModelProperty drives the transactional map with random
// operation sequences and compares against Go's map as the model.
func TestMapMatchesModelProperty(t *testing.T) {
	sys := newSys("lazy")
	thr := sys.NewThread()
	f := func(ops []uint16) bool {
		m := txds.NewMap(txds.NewArena(256, txds.MapNodeWords), 16)
		model := make(map[uint64]uint64)
		for i, op := range ops {
			key := uint64(op % 32)
			switch op % 3 {
			case 0:
				val := uint64(i) + 1
				fresh := m.Put(thr, key, val)
				_, had := model[key]
				if fresh == had {
					return false
				}
				model[key] = val
			case 1:
				v, ok := m.Get(thr, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 2:
				ok := m.Delete(thr, key)
				_, mok := model[key]
				if ok != mok {
					return false
				}
				delete(model, key)
			}
		}
		var n int
		thr.Atomic(func(tx *tm.Tx) { n = m.LenTx(tx) })
		return n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueMatchesModelProperty compares queue behaviour against a slice
// model under random put/take sequences.
func TestQueueMatchesModelProperty(t *testing.T) {
	sys := newSys("eager")
	thr := sys.NewThread()
	f := func(ops []bool) bool {
		q := txds.NewQueue(txds.NewArena(128, txds.QueueNodeWords))
		var model []uint64
		next := uint64(1)
		for _, isPut := range ops {
			if isPut && len(model) < 128 {
				q.Put(thr, next)
				model = append(model, next)
				next++
			} else if !isPut && len(model) > 0 {
				var got uint64
				var ok bool
				thr.Atomic(func(tx *tm.Tx) { got, ok = q.TryTakeTx(tx) })
				if !ok || got != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		return q.Len(thr) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestComposedTransfer moves an element from one queue to another
// atomically, waiting on the source — the §1.2 composability argument as
// a data-structure operation.
func TestComposedTransfer(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			sys := newSys(kind)
			a1 := txds.NewArena(8, txds.QueueNodeWords)
			a2 := txds.NewArena(8, txds.QueueNodeWords)
			src := txds.NewQueue(a1)
			dst := txds.NewQueue(a2)
			done := make(chan struct{})
			go func() {
				thr := sys.NewThread()
				thr.Atomic(func(tx *tm.Tx) {
					v := src.TakeTx(tx) // retries inside the composition
					dst.PutTx(tx, v+1000)
				})
				close(done)
			}()
			time.Sleep(20 * time.Millisecond)
			w := sys.NewThread()
			src.Put(w, 5)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("composed transfer never completed")
			}
			if got := dst.Take(w); got != 1005 {
				t.Fatalf("transferred %d", got)
			}
			if src.Len(w) != 0 || dst.Len(w) != 0 {
				t.Fatal("queues not drained")
			}
		})
	}
}

func TestSnapshotHooks(t *testing.T) {
	sys := newSys("lazy")
	thr := sys.NewThread()

	q := txds.NewQueue(txds.NewArena(8, txds.QueueNodeWords))
	for _, v := range []uint64{10, 20, 30} {
		q.Put(thr, v)
	}
	s := txds.NewStack(txds.NewArena(8, txds.StackNodeWords))
	for _, v := range []uint64{1, 2, 3} {
		s.Push(thr, v)
	}
	m := txds.NewMap(txds.NewArena(8, txds.MapNodeWords), 4)
	m.Put(thr, 7, 70)
	m.Put(thr, 8, 80)

	thr.Atomic(func(tx *tm.Tx) {
		qs := q.SnapshotTx(tx)
		if len(qs) != 3 || qs[0] != 10 || qs[1] != 20 || qs[2] != 30 {
			t.Errorf("queue snapshot = %v, want [10 20 30]", qs)
		}
		ss := s.SnapshotTx(tx)
		if len(ss) != 3 || ss[0] != 3 || ss[1] != 2 || ss[2] != 1 {
			t.Errorf("stack snapshot = %v, want [3 2 1]", ss)
		}
		ms := m.SnapshotTx(tx)
		if len(ms) != 2 || ms[7] != 70 || ms[8] != 80 {
			t.Errorf("map snapshot = %v", ms)
		}
	})

	// The wait-address hooks must point at words the blocking paths read
	// and the unblocking ops write.
	thr.Atomic(func(tx *tm.Tx) {
		if tx.Read(q.HeadAddr()) == txds.Nil {
			t.Error("non-empty queue has Nil head")
		}
		if tx.Read(q.SizeAddr()) != 3 {
			t.Errorf("queue size word = %d", tx.Read(q.SizeAddr()))
		}
		if tx.Read(s.TopAddr()) == txds.Nil {
			t.Error("non-empty stack has Nil top")
		}
	})
}

func TestSnapshotEmptyStructures(t *testing.T) {
	sys := newSys("eager")
	thr := sys.NewThread()
	q := txds.NewQueue(txds.NewArena(4, txds.QueueNodeWords))
	s := txds.NewStack(txds.NewArena(4, txds.StackNodeWords))
	m := txds.NewMap(txds.NewArena(4, txds.MapNodeWords), 2)
	thr.Atomic(func(tx *tm.Tx) {
		if got := q.SnapshotTx(tx); len(got) != 0 {
			t.Errorf("empty queue snapshot = %v", got)
		}
		if got := s.SnapshotTx(tx); len(got) != 0 {
			t.Errorf("empty stack snapshot = %v", got)
		}
		if got := m.SnapshotTx(tx); len(got) != 0 {
			t.Errorf("empty map snapshot = %v", got)
		}
	})
}
