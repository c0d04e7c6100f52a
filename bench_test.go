// Benchmarks regenerating the paper's evaluation (one benchmark function
// per figure; Table 2.1 is regenerated by cmd/loctable, which is analysis
// rather than timing). Representative cells of each figure's grid run
// under `go test -bench=.`; the full grids, at the paper's 2^20-element
// scale, come from cmd/boundedbuffer and cmd/parsecbench.
//
//	Figure 2.3  BenchmarkFig23BufferEager   bounded buffer, eager STM
//	Figure 2.4  BenchmarkFig24BufferLazy    bounded buffer, lazy STM
//	Figure 2.5  BenchmarkFig25BufferHTM     bounded buffer, HTM
//	Figure 2.6  BenchmarkFig26ParsecEager   PARSEC skeletons, eager STM
//	Figure 2.7  BenchmarkFig27ParsecLazy    PARSEC skeletons, lazy STM
//	Figure 2.8  BenchmarkFig28ParsecHTM     PARSEC skeletons, HTM
//
// plus ablation benchmarks for two HTM design choices: the hybrid's
// concurrent software fallback against the global-lock one, and the
// hardware retry budget.
package tmsync_test

import (
	"fmt"
	"testing"

	"tmsync"
	"tmsync/internal/bench"
	"tmsync/internal/mech"
	"tmsync/internal/parsecsim"
)

// benchOps keeps one benchmark iteration fast; the paper's full runs use
// 2^20 (see cmd/boundedbuffer).
const benchOps = 1 << 14

func benchBufferFigure(b *testing.B, engine string) {
	for _, m := range bench.MechsFor(engine) {
		for _, pc := range [][2]int{{2, 2}, {8, 8}, {1, 4}} {
			for _, size := range []int{4, 128} {
				name := fmt.Sprintf("%s/p%dc%d/buf%d", m, pc[0], pc[1], size)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						_, err := bench.RunBuffer(bench.BufferConfig{
							Engine: engine, Mech: m,
							Producers: pc[0], Consumers: pc[1],
							BufferSize: size, TotalOps: benchOps, Trials: 1,
						})
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkFig23BufferEager(b *testing.B) { benchBufferFigure(b, "eager") }
func BenchmarkFig24BufferLazy(b *testing.B)  { benchBufferFigure(b, "lazy") }
func BenchmarkFig25BufferHTM(b *testing.B)   { benchBufferFigure(b, "htm") }

func benchParsecFigure(b *testing.B, engine string) {
	for _, wl := range parsecsim.Benchmarks {
		for _, m := range bench.MechsFor(engine) {
			threads := 4
			if !wl.ValidThreads(threads) {
				threads = 2
			}
			b.Run(fmt.Sprintf("%s/%s/t%d", wl.Name, m, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, _, err := bench.RunParsec(bench.ParsecConfig{
						Engine: engine, Mech: m, Benchmark: wl.Name,
						Threads: threads, Scale: 1, Trials: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig26ParsecEager(b *testing.B) { benchParsecFigure(b, "eager") }
func BenchmarkFig27ParsecLazy(b *testing.B)  { benchParsecFigure(b, "lazy") }
func BenchmarkFig28ParsecHTM(b *testing.B)   { benchParsecFigure(b, "htm") }

// BenchmarkAblationHybridVsSerialFallback compares the HTM engine's
// global-lock fallback against the hybrid engine's concurrent STM fallback
// on a deschedule-heavy workload, where every Retry forces a fallback.
func BenchmarkAblationHybridVsSerialFallback(b *testing.B) {
	for _, engine := range []tmsync.EngineKind{tmsync.HTM, tmsync.Hybrid} {
		b.Run(string(engine), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := tmsync.New(engine, tmsync.Config{})
				runBufferOn(b, sys, mech.Retry, 4, 4, 4, benchOps)
			}
		})
	}
}

// BenchmarkAblationHTMRetries sweeps the hardware retry budget before
// serialization (GCC uses 2): more retries means fewer serial sections but
// more wasted speculation under contention.
func BenchmarkAblationHTMRetries(b *testing.B) {
	for _, r := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("retries=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := tmsync.New(tmsync.HTM, tmsync.Config{HTMMaxRetries: r})
				runBufferOn(b, sys, mech.Retry, 4, 4, 4, benchOps)
			}
		})
	}
}

// runBufferOn drives the quickstart-style bounded buffer directly on a
// pre-configured system (the ablations need custom Config, which
// bench.RunBuffer does not expose).
func runBufferOn(b *testing.B, sys *tmsync.System, m mech.Mechanism, producers, consumers, size, total int) {
	b.Helper()
	done := make(chan struct{})
	buf := newBenchBuffer(size)
	for p := 0; p < producers; p++ {
		go func() {
			thr := sys.NewThread()
			for i := 0; i < total/producers; i++ {
				buf.put(thr, m, uint64(i)+1)
			}
			done <- struct{}{}
		}()
	}
	for c := 0; c < consumers; c++ {
		go func() {
			thr := sys.NewThread()
			for i := 0; i < total/consumers; i++ {
				buf.get(thr, m)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < producers+consumers; i++ {
		<-done
	}
}

type benchBuffer struct {
	slots []uint64
	cap   uint64
	count uint64
	head  uint64
	tail  uint64
}

func newBenchBuffer(n int) *benchBuffer {
	return &benchBuffer{slots: make([]uint64, n), cap: uint64(n)}
}

func (bb *benchBuffer) put(thr *tmsync.Thread, m mech.Mechanism, v uint64) {
	thr.Atomic(func(tx *tmsync.Tx) {
		if tx.Read(&bb.count) == bb.cap {
			bb.wait(tx, m)
		}
		t := tx.Read(&bb.tail)
		tx.Write(&bb.slots[t], v)
		tx.Write(&bb.tail, (t+1)%bb.cap)
		tx.Write(&bb.count, tx.Read(&bb.count)+1)
	})
}

func (bb *benchBuffer) get(thr *tmsync.Thread, m mech.Mechanism) uint64 {
	var out uint64
	thr.Atomic(func(tx *tmsync.Tx) {
		if tx.Read(&bb.count) == 0 {
			bb.wait(tx, m)
		}
		h := tx.Read(&bb.head)
		out = tx.Read(&bb.slots[h])
		tx.Write(&bb.head, (h+1)%bb.cap)
		tx.Write(&bb.count, tx.Read(&bb.count)-1)
	})
	return out
}

func (bb *benchBuffer) wait(tx *tmsync.Tx, m mech.Mechanism) {
	switch m {
	case mech.Retry:
		tmsync.Retry(tx)
	case mech.Await:
		tmsync.Await(tx, &bb.count)
	case mech.WaitPred:
		was := tx.Read(&bb.count)
		tmsync.WaitPred(tx, func(tx *tmsync.Tx, args []uint64) bool {
			return tx.Read(&bb.count) != args[0]
		}, was)
	default:
		tx.Restart()
	}
}
