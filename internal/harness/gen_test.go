package harness

import "testing"

// TestSeedsCoverEveryShape holds seed ranges the differential rows of
// cmd/tmcheck/ci_matrix.txt run (seeds 1-15, well inside the baseline's
// -n 50 -seed 1, and the race leg's -n 6 -seed 1) to covering every filler
// shape the generator draws: both key
// distributions, all five mixes, a multi-phase schedule, and read-heavy
// transactions actually in the programs. A generator change that re-rolls
// the stream so that a shape drops out of those runs fails here instead of
// leaving that shape unchecked.
func TestSeedsCoverEveryShape(t *testing.T) {
	for _, n := range []uint64{15, 6} {
		zipf := map[bool]bool{}
		mixes := map[mix]bool{}
		multiPhase, readHeavy := false, false
		for seed := uint64(1); seed <= n; seed++ {
			s := Generate(seed, GenConfig{})
			sh := s.sp.shape
			zipf[sh.zipf] = true
			for _, m := range sh.phases {
				mixes[m] = true
			}
			multiPhase = multiPhase || len(sh.phases) > 1
			for _, prog := range s.sp.programs {
				for _, o := range prog {
					readHeavy = readHeavy || o.kind == opReadHeavy
				}
			}
		}
		if len(zipf) != 2 {
			t.Errorf("seeds 1-%d draw only zipf=%v", n, zipf)
		}
		for m := mix(0); m < numMixes; m++ {
			if !mixes[m] {
				t.Errorf("seeds 1-%d never draw mix %d", n, m)
			}
		}
		if !multiPhase {
			t.Errorf("seeds 1-%d never draw a multi-phase schedule", n)
		}
		if !readHeavy {
			t.Errorf("seeds 1-%d generate no read-heavy transaction", n)
		}
	}
}
