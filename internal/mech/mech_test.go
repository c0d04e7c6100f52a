package mech_test

import (
	"testing"

	"tmsync/internal/mech"
)

func TestTMExcludesPthreads(t *testing.T) {
	if len(mech.TM) != 6 {
		t.Fatalf("TM has %d mechanisms", len(mech.TM))
	}
	for _, m := range mech.TM {
		if m == mech.Pthreads {
			t.Fatal("TM includes Pthreads")
		}
	}
}

func TestForEngine(t *testing.T) {
	for engine, want := range map[string]int{"eager": 6, "lazy": 6, "htm": 5, "hybrid": 5} {
		got := mech.ForEngine(engine)
		if len(got) != want {
			t.Errorf("ForEngine(%s) = %d mechanisms, want %d", engine, len(got), want)
		}
		for _, m := range got {
			if m == mech.Pthreads {
				t.Errorf("ForEngine(%s): Pthreads is not a transactional mechanism", engine)
			}
			if m == mech.RetryOrig && (engine == "htm" || engine == "hybrid") {
				t.Errorf("ForEngine(%s): Retry-Orig needs STM metadata", engine)
			}
		}
	}
}
