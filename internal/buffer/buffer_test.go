package buffer_test

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tmsync/internal/buffer"
	"tmsync/internal/core"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/mech"
	"tmsync/internal/mem"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
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

func TestLockBufferFIFO(t *testing.T) {
	b := buffer.NewLock(4)
	for i := uint64(1); i <= 4; i++ {
		b.Put(i)
	}
	for i := uint64(1); i <= 4; i++ {
		if got := b.Get(); got != i {
			t.Fatalf("Get = %d, want %d", got, i)
		}
	}
	if b.Count() != 0 {
		t.Fatalf("count = %d", b.Count())
	}
}

func TestLockBufferBlocksWhenFull(t *testing.T) {
	b := buffer.NewLock(2)
	b.Put(1)
	b.Put(2)
	done := make(chan struct{})
	go func() { b.Put(3); close(done) }()
	select {
	case <-done:
		t.Fatal("Put on a full buffer did not block")
	case <-time.After(30 * time.Millisecond):
	}
	if got := b.Get(); got != 1 {
		t.Fatalf("Get = %d", got)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Put never completed after Get")
	}
}

func TestTMBufferFIFOSingleThread(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			sys := newSys(kind)
			for _, m := range mech.ForEngine(kind) {
				t.Run(string(m), func(t *testing.T) {
					b := buffer.NewTM(8)
					thr := sys.NewThread()
					for i := uint64(1); i <= 8; i++ {
						b.PutMech(thr, m, i)
					}
					for i := uint64(1); i <= 8; i++ {
						if got := b.GetMech(thr, m); got != i {
							t.Fatalf("Get = %d, want %d", got, i)
						}
					}
				})
			}
		})
	}
}

func TestPrefill(t *testing.T) {
	sys := newSys("eager")
	b := buffer.NewTM(8)
	b.Prefill([]uint64{7, 8, 9})
	thr := sys.NewThread()
	thr.Atomic(func(tx *tm.Tx) {
		if b.Count(tx) != 3 {
			t.Errorf("count = %d", b.Count(tx))
		}
	})
	for _, want := range []uint64{7, 8, 9} {
		if got := b.GetRetry(thr); got != want {
			t.Fatalf("Get = %d, want %d", got, want)
		}
	}
	// Wrap-around after prefill: next produce lands at slot 3.
	b.PutRetry(thr, 100)
	if got := b.GetRetry(thr); got != 100 {
		t.Fatalf("Get after wrap = %d", got)
	}
}

// runProducersConsumers drives p producers and c consumers moving total
// elements through b with mechanism m, and checks conservation: every
// produced value is consumed exactly once.
func runProducersConsumers(t *testing.T, sys *tm.System, m mech.Mechanism, capacity, p, c, total int) {
	t.Helper()
	b := buffer.NewTM(capacity)
	var wg sync.WaitGroup
	consumed := make([][]uint64, c)
	perProd := total / p
	perCons := total / c
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			thr := sys.NewThread()
			for k := 0; k < perProd; k++ {
				b.PutMech(thr, m, uint64(id*perProd+k)+1)
			}
		}(i)
	}
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			thr := sys.NewThread()
			out := make([]uint64, 0, perCons)
			for k := 0; k < perCons; k++ {
				out = append(out, b.GetMech(thr, m))
			}
			consumed[id] = out
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: producer/consumer run wedged", m)
	}
	seen := make(map[uint64]bool, total)
	for _, out := range consumed {
		for _, v := range out {
			if v == 0 {
				t.Fatal("consumed a zero (uninitialized slot)")
			}
			if seen[v] {
				t.Fatalf("value %d consumed twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("consumed %d distinct values, want %d", len(seen), total)
	}
}

// stressTotal scales a stress iteration count: full counts by default,
// reduced short-mode variants so `go test -short` stays fast while still
// exercising every code path.
func stressTotal(full int) int {
	if testing.Short() {
		// Round to a multiple of 60 so the total stays divisible by every
		// producer/consumer count the callers use.
		s := full / 10
		s -= s % 60
		return max(s, 120)
	}
	return full
}

func TestProducerConsumerAllMechanisms(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			for _, m := range mech.ForEngine(kind) {
				t.Run(string(m), func(t *testing.T) {
					sys := newSys(kind)
					runProducersConsumers(t, sys, m, 4, 2, 2, stressTotal(2000))
				})
			}
		})
	}
}

func TestProducerConsumerImbalanced(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			for _, pc := range [][2]int{{1, 4}, {4, 1}} {
				sys := newSys(kind)
				runProducersConsumers(t, sys, mech.Retry, 4, pc[0], pc[1], stressTotal(2000))
			}
		})
	}
}

func TestTinyBufferHighContention(t *testing.T) {
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			for _, m := range mech.ForEngine(kind) {
				t.Run(string(m), func(t *testing.T) {
					sys := newSys(kind)
					runProducersConsumers(t, sys, m, 1, 3, 3, stressTotal(900))
				})
			}
		})
	}
}

func TestComposeRetryIsAtomic(t *testing.T) {
	// Algorithm 3 under Retry: the observer must never see inprogress set,
	// and the composition must consume two consecutively produced
	// elements (here: the two only elements, in FIFO order).
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			sys := newSys(kind)
			b := buffer.NewTM(8)
			var inprogress mem.Var
			type pair struct{ a, b uint64 }
			res := make(chan pair, 1)
			go func() {
				thr := sys.NewThread()
				x, y := b.Produce1Consume2Retry(thr, &inprogress, 77)
				res <- pair{x, y}
			}()
			obs := sys.NewThread()
			violations := 0
			start := time.Now()
			fed := false
			for {
				var ip uint64
				obs.Atomic(func(tx *tm.Tx) { ip = tx.Read(inprogress.Addr()) })
				if ip != 0 {
					violations++
				}
				if !fed && sys.Stats.Sum().Deschedules > 0 {
					// The composer is asleep (second consume found the
					// buffer empty and unrolled everything). Feed it.
					obs.Atomic(func(tx *tm.Tx) {
						if !b.Full(tx) {
							b.Put(tx, 55)
						}
					})
					fed = true
				}
				select {
				case p := <-res:
					if violations != 0 {
						t.Fatalf("observer saw inprogress set %d times under Retry", violations)
					}
					if !fed {
						t.Fatal("composition completed without waiting (test setup broken)")
					}
					if p.a != 55 || p.b != 77 {
						t.Fatalf("consumed (%d,%d), want FIFO (55,77)", p.a, p.b)
					}
					return
				default:
				}
				if time.Since(start) > 5*time.Second {
					t.Fatal("composition never completed")
				}
			}
		})
	}
}

func TestComposeCondVarBreaksAtomicity(t *testing.T) {
	// The same composition over TMCondVar: the wait commits the outer
	// transaction, so the observer CAN see inprogress set — the dangerous
	// scenario of §2.2.1.
	for _, kind := range allEngines {
		t.Run(kind, func(t *testing.T) {
			sys := newSys(kind)
			b := buffer.NewTM(8)
			var inprogress mem.Var
			done := make(chan struct{})
			go func() {
				thr := sys.NewThread()
				b.Produce1Consume2CondVar(thr, &inprogress, 77)
				close(done)
			}()
			obs := sys.NewThread()
			sawPartial := false
			start := time.Now()
			for !sawPartial {
				var ip uint64
				obs.Atomic(func(tx *tm.Tx) { ip = tx.Read(inprogress.Addr()) })
				if ip != 0 {
					sawPartial = true
				}
				if time.Since(start) > 5*time.Second {
					t.Fatal("never observed the atomicity break")
				}
			}
			// Feed the sleeping composer so it can finish.
			obs.Atomic(func(tx *tm.Tx) {
				if !b.Full(tx) {
					b.Put(tx, 55)
				}
			})
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("composition never completed after feeding")
			}
		})
	}
}

func TestBufferConservationProperty(t *testing.T) {
	// Property: for random (capacity, prefill, ops) the buffer conserves
	// elements and count equals prefill+puts-gets.
	sys := newSys("lazy")
	thr := sys.NewThread()
	f := func(capSeed, preSeed uint8, ops []bool) bool {
		capacity := int(capSeed%16) + 1
		pre := int(preSeed) % (capacity + 1)
		b := buffer.NewTM(capacity)
		vals := make([]uint64, pre)
		for i := range vals {
			vals[i] = uint64(i) + 1000
		}
		b.Prefill(vals)
		count := pre
		next := uint64(1)
		for _, isPut := range ops {
			if isPut && count < capacity {
				b.PutRetry(thr, next)
				next++
				count++
			} else if !isPut && count > 0 {
				if b.GetRetry(thr) == 0 {
					return false
				}
				count--
			}
		}
		got := 0
		thr.Atomic(func(tx *tm.Tx) { got = int(b.Count(tx)) })
		return got == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerProducerProperty(t *testing.T) {
	// With concurrent producers, each producer's own values must be
	// consumed in the order it produced them (FIFO buffer).
	sys := newSys("eager")
	const producers = 3
	const per = 300
	b := buffer.NewTM(4)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			thr := sys.NewThread()
			for k := 0; k < per; k++ {
				// Encode producer id in the high bits, sequence in low.
				b.PutRetry(thr, uint64(id)<<32|uint64(k+1))
			}
		}(p)
	}
	order := make([][]uint64, producers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		thr := sys.NewThread()
		for k := 0; k < producers*per; k++ {
			v := b.GetRetry(thr)
			id := int(v >> 32)
			order[id] = append(order[id], v&0xffffffff)
		}
	}()
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(60 * time.Second):
		t.Fatal("wedged")
	}
	for id, seq := range order {
		if len(seq) != per {
			t.Fatalf("producer %d: consumed %d values", id, len(seq))
		}
		for i, v := range seq {
			if v != uint64(i+1) {
				t.Fatalf("producer %d: position %d holds %d (FIFO violated)", id, i, v)
			}
		}
	}
}
