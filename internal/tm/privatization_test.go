package tm_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// TestPrivatizationSafety exercises the quiescence mechanism (Appendix A,
// TxCommit line 20): a thread transactionally unlinks ("privatizes") a
// region, then mutates it non-transactionally. Readers that transactionally
// check the published flag before reading the region must never observe
// the non-transactional mutations mid-flight — the writer's quiescence
// waits out every transaction that began before the privatizing commit.
func TestPrivatizationSafety(t *testing.T) {
	for name, mk := range map[string]func() *tm.System{
		"eager": func() *tm.System { return tm.NewSystem(tm.Config{}, eager.New) },
		"lazy":  func() *tm.System { return tm.NewSystem(tm.Config{}, lazy.New) },
	} {
		t.Run(name, func(t *testing.T) {
			sys := mk()
			const rounds = 400
			const regionLen = 16

			region := make([]uint64, regionLen)
			var published uint64 = 1 // 1 = region is shared, 0 = privatized
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var torn atomic.Int64

			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					thr := sys.NewThread()
					for {
						select {
						case <-stop:
							return
						default:
						}
						thr.Atomic(func(tx *tm.Tx) {
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
					}
				}()
			}

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
			close(stop)
			wg.Wait()
			if n := torn.Load(); n != 0 {
				t.Fatalf("readers observed %d torn region states (privatization unsafe)", n)
			}
		})
	}
}
