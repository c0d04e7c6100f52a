package core_test

import (
	"sync"
	"testing"
	"time"

	"tmsync/internal/core"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/tm"
)

// TestRetryUnderSpuriousAborts injects a high simulated hardware abort
// rate and verifies condition synchronization still makes progress and
// conserves elements — failure injection for the HTM/hybrid retry paths.
func TestRetryUnderSpuriousAborts(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func(cfg tm.Config) *tm.System
	}{
		{"htm", func(cfg tm.Config) *tm.System { return tm.NewSystem(cfg, htm.New) }},
		{"hybrid", func(cfg tm.Config) *tm.System { return tm.NewSystem(cfg, hybrid.New) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			sys := mk.make(tm.Config{HTMSpuriousAbortPerMille: 100})
			core.Enable(sys)
			var slots, count uint64
			_ = slots
			const total = 2000
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < total; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						if tx.Read(&count) == 4 {
							core.Retry(tx)
						}
						tx.Write(&count, tx.Read(&count)+1)
					})
				}
			}()
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < total; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						if tx.Read(&count) == 0 {
							core.Retry(tx)
						}
						tx.Write(&count, tx.Read(&count)-1)
					})
				}
			}()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("wedged under spurious abort injection")
			}
			if count != 0 {
				t.Fatalf("count = %d, want 0", count)
			}
			if sys.Stats.Sum().SpuriousAborts == 0 {
				t.Error("injection did not fire")
			}
		})
	}
}

// TestMixedMechanismsOneSystem runs Retry, Await, WaitPred, and Restart
// waiters concurrently against the same counter on one system: the
// registry must handle heterogeneous waiters.
func TestMixedMechanismsOneSystem(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var level uint64
		var wg sync.WaitGroup
		waiters := []func(tx *tm.Tx){
			func(tx *tm.Tx) {
				if tx.Read(&level) < 1 {
					core.Retry(tx)
				}
			},
			func(tx *tm.Tx) {
				if tx.Read(&level) < 2 {
					core.Await(tx, &level)
				}
			},
			func(tx *tm.Tx) {
				if tx.Read(&level) < 3 {
					core.WaitPred(tx, func(tx *tm.Tx, _ []uint64) bool {
						return tx.Read(&level) >= 3
					})
				}
			},
			func(tx *tm.Tx) {
				if tx.Read(&level) < 4 {
					tx.Restart()
				}
			},
		}
		for _, w := range waiters {
			wg.Add(1)
			go func(body func(tx *tm.Tx)) {
				defer wg.Done()
				thr := sys.NewThread()
				thr.Atomic(body)
			}(w)
		}
		// Raise the level step by step; all waiters must eventually pass.
		writer := sys.NewThread()
		for v := uint64(1); v <= 4; v++ {
			time.Sleep(5 * time.Millisecond)
			writer.Atomic(func(tx *tm.Tx) { tx.Write(&level, v) })
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("mixed waiters wedged")
		}
	})
}

// TestWaiterChurn hammers the registry: many short-lived waiters racing
// with many writers, checking the registry drains to empty.
func TestWaiterChurn(t *testing.T) {
	forEach(t, allEngines, func(t *testing.T, sys *tm.System, cs *core.CondSync) {
		var token uint64
		const pairs = 3
		const rounds = 300
		var wg sync.WaitGroup
		for p := 0; p < pairs; p++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < rounds; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						v := tx.Read(&token)
						if v == 0 {
							core.Retry(tx)
						}
						tx.Write(&token, v-1)
					})
				}
			}()
			go func() {
				defer wg.Done()
				thr := sys.NewThread()
				for i := 0; i < rounds; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						tx.Write(&token, tx.Read(&token)+1)
					})
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("churn wedged")
		}
		if token != 0 {
			t.Fatalf("token = %d, want 0", token)
		}
		if got := cs.WaitingLen(); got != 0 {
			t.Fatalf("registry holds %d stale waiters", got)
		}
	})
}
