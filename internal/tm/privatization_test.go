package tm_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// privatizationSystems are the engines whose commits quiesce.
var privatizationSystems = map[string]func() *tm.System{
	"eager": func() *tm.System { return tm.NewSystem(tm.Config{}, eager.New) },
	"lazy":  func() *tm.System { return tm.NewSystem(tm.Config{}, lazy.New) },
}

// runReaders starts three goroutines, each on its own thread, that run body
// as a transaction over and over until the returned stop is called; stop
// returns once they have exited.
func runReaders(sys *tm.System, body func(tx *tm.Tx)) (stop func()) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			thr := sys.NewThread()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Readers never block: without a yield a reader holds its
				// processor for a whole time slice while the owner's
				// quiescence wait, which yields, is not re-polled (tens of
				// seconds per test under -race on two processors).
				runtime.Gosched()
				thr.Atomic(body)
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestPrivatizationSafety exercises the quiescence mechanism (Appendix A,
// TxCommit line 20): a thread transactionally unlinks ("privatizes") a
// region, then mutates it non-transactionally. Readers that transactionally
// check the published flag before reading the region must never observe
// the non-transactional mutations mid-flight — the writer's quiescence
// waits out every transaction that read the flag before the privatizing
// commit.
func TestPrivatizationSafety(t *testing.T) {
	for name, mk := range privatizationSystems {
		t.Run(name, func(t *testing.T) {
			sys := mk()
			const rounds = 400
			const regionLen = 16

			region := make([]uint64, regionLen)
			var published uint64 = 1 // 1 = region is shared, 0 = privatized
			var torn atomic.Int64
			stop := runReaders(sys, func(tx *tm.Tx) {
				if tx.Read(&published) == 0 {
					return // privatized: hands off
				}
				// All words must agree while shared.
				first := tx.Read(&region[0])
				for i := 1; i < regionLen; i++ {
					if tx.Read(&region[i]) != first {
						torn.Add(1)
					}
				}
			})

			owner := sys.NewThread()
			for round := 0; round < rounds; round++ {
				// Privatize: after this commit (and its quiescence), no
				// reader transaction can still be reading the region.
				owner.Atomic(func(tx *tm.Tx) { tx.Write(&published, 0) })
				// Non-transactional mutation: transiently tears the region.
				for i := range region {
					region[i] = uint64(round*regionLen + i)
				}
				for i := range region {
					region[i] = uint64(round + 1)
				}
				// Re-publish.
				owner.Atomic(func(tx *tm.Tx) { tx.Write(&published, 1) })
			}
			stop()
			if n := torn.Load(); n != 0 {
				t.Fatalf("readers observed %d torn region states (privatization unsafe)", n)
			}
		})
	}
}

// TestPrivatizationSafetyFreeReuse is the free-then-reuse form of the
// idiom: the owner unlinks the shared block and frees it in the same
// transaction, and its next transaction allocates the block again (the
// pool hands back the one just freed) and fills it non-transactionally, as
// a new private owner would. A reader that reached the block through the
// old pointer must never observe that reuse: the unlinking commit
// quiesces on every reader that read the pointer, and the free takes
// effect only after it.
func TestPrivatizationSafetyFreeReuse(t *testing.T) {
	for name, mk := range privatizationSystems {
		t.Run(name, func(t *testing.T) {
			sys := mk()
			const rounds = 400
			const blockLen = 16

			// ptr names the shared block: 0 for none, else r+1, the round
			// that published blocks[r].
			var ptr uint64
			blocks := make([]atomic.Pointer[[]uint64], rounds)
			var torn atomic.Int64
			stop := runReaders(sys, func(tx *tm.Tx) {
				k := tx.Read(&ptr)
				if k == 0 {
					return
				}
				// A published block holds its round's tag in every word.
				b := *blocks[k-1].Load()
				for i := range b {
					if tx.Read(&b[i]) != k {
						torn.Add(1)
					}
				}
			})

			owner := sys.NewThread()
			for round := 0; round < rounds; round++ {
				var b []uint64
				owner.Atomic(func(tx *tm.Tx) { b = tx.Alloc(blockLen) })
				// Private use of the (reused) block: tear it, then tag it.
				for i := range b {
					b[i] = uint64(round*blockLen + i)
				}
				for i := range b {
					b[i] = uint64(round + 1)
				}
				blocks[round].Store(&b)
				owner.Atomic(func(tx *tm.Tx) { tx.Write(&ptr, uint64(round+1)) })
				// Unlink and free: once this commit returns no reader may
				// still hold the block.
				owner.Atomic(func(tx *tm.Tx) {
					tx.Write(&ptr, 0)
					tx.Free(b)
				})
			}
			stop()
			if n := torn.Load(); n != 0 {
				t.Fatalf("readers observed a freed block's reuse %d times (privatization unsafe)", n)
			}
		})
	}
}
