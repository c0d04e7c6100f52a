package parsecsim_test

import (
	"testing"

	"tmsync/internal/core"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/mech"
	"tmsync/internal/parsecsim"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

func newKit(engine string, m mech.Mechanism) *parsecsim.Kit {
	if m == mech.Pthreads {
		return &parsecsim.Kit{Mech: m}
	}
	var sys *tm.System
	switch engine {
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
	return &parsecsim.Kit{Mech: m, Sys: sys}
}

// referenceChecksums computes each benchmark's expected checksum once,
// from the trivially-correct configuration (Pthreads, 1 thread).
func referenceChecksums(t *testing.T, scale int) map[string]uint64 {
	t.Helper()
	ref := make(map[string]uint64)
	for _, b := range parsecsim.Benchmarks {
		k := newKit("", mech.Pthreads)
		ref[b.Name] = b.Run(k, 1, scale)
	}
	return ref
}

func TestChecksumThreadIndependentPthreads(t *testing.T) {
	ref := referenceChecksums(t, 1)
	for _, b := range parsecsim.Benchmarks {
		for _, n := range []int{2, 4} {
			if !b.ValidThreads(n) {
				continue
			}
			k := newKit("", mech.Pthreads)
			if got := b.Run(k, n, 1); got != ref[b.Name] {
				t.Errorf("%s: %d-thread checksum %x != reference %x", b.Name, n, got, ref[b.Name])
			}
		}
	}
}

func TestAllMechanismsMatchReference(t *testing.T) {
	// Short mode runs a reduced matrix (one engine) instead of skipping,
	// so `go test -short` still exercises every mechanism × benchmark.
	engines := []string{"eager", "lazy", "htm", "hybrid"}
	if testing.Short() {
		engines = engines[:1]
	}
	ref := referenceChecksums(t, 1)
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			for _, m := range mech.ForEngine(engine) {
				t.Run(string(m), func(t *testing.T) {
					for _, b := range parsecsim.Benchmarks {
						n := 2
						if !b.ValidThreads(n) {
							n = 1
						}
						k := newKit(engine, m)
						if got := b.Run(k, n, 1); got != ref[b.Name] {
							t.Errorf("%s: checksum %x != reference %x", b.Name, got, ref[b.Name])
						}
					}
				})
			}
		})
	}
}

func TestHigherThreadCounts(t *testing.T) {
	ref := referenceChecksums(t, 1)
	for _, b := range parsecsim.Benchmarks {
		n := 4
		if testing.Short() {
			n = 2 // reduced short-mode variant
		}
		if !b.ValidThreads(n) {
			continue
		}
		k := newKit("lazy", mech.Retry)
		if got := b.Run(k, n, 1); got != ref[b.Name] {
			t.Errorf("%s at 4 threads: %x != %x", b.Name, got, ref[b.Name])
		}
	}
}

func TestByName(t *testing.T) {
	b, err := parsecsim.ByName("dedup")
	if err != nil || b.Name != "dedup" {
		t.Fatalf("ByName(dedup) = %v, %v", b, err)
	}
	if _, err := parsecsim.ByName("nonesuch"); err == nil {
		t.Fatal("ByName(nonesuch) should fail")
	}
}

func TestSyncPointCountsMatchTable21(t *testing.T) {
	want := map[string]int{
		"bodytrack": 5, "dedup": 3, "facesim": 7, "ferret": 2,
		"fluidanimate": 4, "raytrace": 3, "streamcluster": 5, "x264": 1,
	}
	for _, b := range parsecsim.Benchmarks {
		if b.SyncPoints != want[b.Name] {
			t.Errorf("%s: SyncPoints = %d, Table 2.1 says %d", b.Name, b.SyncPoints, want[b.Name])
		}
	}
}

func TestValidThreadConstraints(t *testing.T) {
	fluid, _ := parsecsim.ByName("fluidanimate")
	for n, want := range map[int]bool{1: true, 2: true, 3: false, 4: true, 6: false, 8: true} {
		if fluid.ValidThreads(n) != want {
			t.Errorf("fluidanimate.ValidThreads(%d) = %v", n, !want)
		}
	}
	sc, _ := parsecsim.ByName("streamcluster")
	for n, want := range map[int]bool{1: true, 2: true, 3: false, 4: true, 5: false, 6: true} {
		if sc.ValidThreads(n) != want {
			t.Errorf("streamcluster.ValidThreads(%d) = %v", n, !want)
		}
	}
}

func TestKitPrimitivesBarrier(t *testing.T) {
	// Direct barrier test: n goroutines cross the barrier r times; a
	// shared phase counter may only advance when everyone has arrived.
	for _, engine := range []string{"eager", "htm"} {
		for _, m := range []mech.Mechanism{mech.Pthreads, mech.Retry, mech.WaitPred, mech.TMCondVar} {
			t.Run(engine+"/"+string(m), func(t *testing.T) {
				k := newKit(engine, m)
				bar := k.NewBarrier(4)
				const rounds = 50
				arrive := make([][]int, 4)
				done := make(chan int, 4)
				for w := 0; w < 4; w++ {
					go func(id int) {
						thr := k.NewThread()
						var sense uint64
						for r := 0; r < rounds; r++ {
							arrive[id] = append(arrive[id], r)
							bar.Arrive(thr, &sense)
						}
						done <- id
					}(w)
				}
				for i := 0; i < 4; i++ {
					<-done
				}
				for id := range arrive {
					if len(arrive[id]) != rounds {
						t.Fatalf("worker %d crossed %d times", id, len(arrive[id]))
					}
				}
			})
		}
	}
}

func TestKitCounterWaitAtLeast(t *testing.T) {
	for _, m := range []mech.Mechanism{mech.Pthreads, mech.Await, mech.RetryOrig, mech.Restart} {
		t.Run(string(m), func(t *testing.T) {
			k := newKit("eager", m)
			c := k.NewCounter()
			done := make(chan struct{})
			go func() {
				thr := k.NewThread()
				c.WaitAtLeast(thr, 10)
				close(done)
			}()
			adder := k.NewThread()
			for i := 0; i < 10; i++ {
				c.Add(adder, 1)
			}
			<-done
			if got := c.Value(adder); got != 10 {
				t.Fatalf("value = %d", got)
			}
		})
	}
}
