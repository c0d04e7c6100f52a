package tm_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tmsync/internal/tm"
)

// TestIrrevocableExclusive checks that an irrevocable transaction runs
// with system-wide exclusivity on every engine: a non-transactional
// side-effect counter incremented inside irrevocable sections never
// observes concurrency.
func TestIrrevocableExclusive(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		var inside, maxInside atomic.Int64
		var counter uint64
		var wg sync.WaitGroup
		const workers = 4
		const per = 200
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < per; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						tx.Irrevocable()
						cur := inside.Add(1)
						for {
							max := maxInside.Load()
							if cur <= max || maxInside.CompareAndSwap(max, cur) {
								break
							}
						}
						tx.Write(&counter, tx.Read(&counter)+1)
						inside.Add(-1)
					})
				}
			}()
		}
		wg.Wait()
		if counter != workers*per {
			t.Fatalf("counter = %d, want %d", counter, workers*per)
		}
		if m := maxInside.Load(); m != 1 {
			t.Fatalf("irrevocable sections overlapped: max concurrency %d", m)
		}
	})
}

// TestIrrevocableRunsOnce verifies that once a transaction turns
// irrevocable, the body does not re-execute (the "I/O exactly once"
// guarantee): effects after Irrevocable() happen exactly one time.
func TestIrrevocableRunsOnce(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		var ioCount atomic.Int64
		var x uint64
		const workers = 4
		const per = 150
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < per; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						v := tx.Read(&x)
						tx.Irrevocable()
						ioCount.Add(1) // "I/O": must happen exactly once per op
						tx.Write(&x, v+1)
					})
				}
			}()
		}
		wg.Wait()
		if x != workers*per {
			t.Fatalf("x = %d, want %d", x, workers*per)
		}
		if ioCount.Load() != workers*per {
			t.Fatalf("I/O ran %d times for %d operations", ioCount.Load(), workers*per)
		}
	})
}

// TestIrrevocableMixedWithNormal runs irrevocable transactions against a
// background of ordinary transactions on the same data.
func TestIrrevocableMixedWithNormal(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		var counter uint64
		var wg sync.WaitGroup
		const per = 300
		for w := 0; w < 2; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < per; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						tx.Write(&counter, tx.Read(&counter)+1)
					})
				}
			}()
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < per; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						tx.Irrevocable()
						tx.Write(&counter, tx.Read(&counter)+1)
					})
				}
			}()
		}
		wg.Wait()
		if counter != 4*per {
			t.Fatalf("counter = %d, want %d", counter, 4*per)
		}
	})
}

// TestIrrevocableIdempotent checks that calling Irrevocable twice in the
// same transaction is a no-op the second time.
func TestIrrevocableIdempotent(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		thr := sys.NewThread()
		runs := 0
		var x uint64
		thr.Atomic(func(tx *tm.Tx) {
			runs++
			tx.Irrevocable()
			tx.Irrevocable()
			tx.Write(&x, 9)
		})
		// One speculative run + one irrevocable re-execution.
		if runs != 2 {
			t.Fatalf("body ran %d times, want 2", runs)
		}
		if x != 9 {
			t.Fatalf("x = %d", x)
		}
	})
}

// TestThreadListRegistrationDuringSerialEntry covers the lock-free thread
// walk: EnterSerial drains the threads of whatever list header it loaded,
// so a thread that registers during the walk is not waited for. It need
// not be — it begins its first attempt after SerialActive was set, and
// BeginHW's and PublishStartSerialAware's recheck make it stand down — and
// this test holds the system to that: while one thread runs irrevocable
// sections back to back, spawners keep registering fresh threads whose
// very first attempt starts at once, and no transaction body on any of
// them may ever observe a serial section in progress.
func TestThreadListRegistrationDuringSerialEntry(t *testing.T) {
	forEachEngine(t, func(t *testing.T, sys *tm.System) {
		// Thread ids are 15 bits: each section admits a few registrations.
		const spawners, sections, perSection = 3, 300, 9
		var serial, stop atomic.Bool
		var overlaps, fresh, budget atomic.Int64
		var x uint64
		cells := make([]uint64, spawners*64)

		var wg sync.WaitGroup
		for s := 0; s < spawners; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if budget.Add(-1) < 0 {
						budget.Add(1)
						runtime.Gosched()
						continue
					}
					thr := sys.NewThread()
					thr.Atomic(func(tx *tm.Tx) {
						v := tx.Read(&cells[s*64])
						if serial.Load() {
							overlaps.Add(1)
						}
						tx.Write(&cells[s*64], v+1)
						if serial.Load() {
							overlaps.Add(1)
						}
					})
					fresh.Add(1)
				}
			}()
		}

		thr := sys.NewThread()
		for i := 0; i < sections; i++ {
			budget.Store(perSection) // registrations race this section's entry
			thr.Atomic(func(tx *tm.Tx) {
				tx.Irrevocable()
				serial.Store(true)
				tx.Write(&x, tx.Read(&x)+1)
				for j := 0; j < 200; j++ {
					runtime.Gosched() // dwell: give a stray attempt time to show itself
				}
				serial.Store(false)
			})
			for fresh.Load() < int64(i+1)*perSection {
				runtime.Gosched()
			}
		}
		stop.Store(true)
		wg.Wait()

		if n := overlaps.Load(); n != 0 {
			t.Errorf("%d transaction bodies on freshly registered threads ran inside a serial section", n)
		}
		if x != sections {
			t.Errorf("x = %d, want %d", x, sections)
		}
		if got, want := len(sys.Threads()), int(fresh.Load())+1; got != want {
			t.Errorf("thread list has %d entries, want %d", got, want)
		}
		if st := sys.Stats.Sum(); st.Serializations < sections {
			t.Errorf("serializations = %d, want at least %d", st.Serializations, sections)
		}
	})
}
