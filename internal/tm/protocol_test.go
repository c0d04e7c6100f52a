package tm_test

// The orec protocol lives once, in orec.go and hw.go; these tests state
// its contract once and run it through every way an engine composes it:
// {eager, lazy, htm, hybrid-HW, hybrid-SW} × clock.Modes(). Each scenario
// is single-goroutine — conflicting commits are issued from inside the
// victim's transaction body on a second thread handle — so every
// interleaving is exact.

import (
	"fmt"
	"slices"
	"testing"

	"tmsync/internal/clock"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/locktable"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// protocolPath is one engine mode the shared protocol runs under.
type protocolPath struct {
	name     string
	mk       func(*tm.System) tm.Engine
	mode     tm.Mode // the mode attempts must execute in
	software bool    // force the software mode (hybrid's STM, htm's serial)

	irrevocable bool // the body asks for an irrevocable section first
}

var protocolPaths = []protocolPath{
	{name: "eager", mk: eager.New, mode: tm.ModeSTM},
	{name: "lazy", mk: lazy.New, mode: tm.ModeSTM},
	{name: "htm", mk: htm.New, mode: tm.ModeHW},
	{name: "hybrid-HW", mk: hybrid.New, mode: tm.ModeHW},
	{name: "hybrid-SW", mk: hybrid.New, mode: tm.ModeSTM, software: true},
}

// enter steers the attempt onto the path under test: hybrid's software
// mode is reached by restarting the hardware attempt, so callers count
// attempts after it.
func (p protocolPath) enter(t *testing.T, tx *tm.Tx) {
	t.Helper()
	if p.software && tx.Mode == tm.ModeHW {
		tx.RestartSoftware()
	}
	if tx.Mode != p.mode {
		t.Fatalf("attempt runs in mode %v, want %v", tx.Mode, p.mode)
	}
	if tx.Attempts > 32 {
		// A broken protocol typically shows as a version the clock never
		// reaches: fail instead of re-executing forever.
		t.Fatalf("attempt %d: the transaction cannot make progress", tx.Attempts)
	}
}

func forEachProtocolPath(t *testing.T, fn func(t *testing.T, p protocolPath, cfg tm.Config)) {
	forEachPath(t, protocolPaths, fn)
}

func forEachPath(t *testing.T, paths []protocolPath, fn func(t *testing.T, p protocolPath, cfg tm.Config)) {
	for _, p := range paths {
		for _, mode := range clock.Modes() {
			t.Run(fmt.Sprintf("%s/%s", p.name, mode), func(t *testing.T) {
				// A generous hardware budget: under the deferred clock an
				// abort that only teaches the clock a version costs an
				// attempt, and the hardware paths must stay in hardware.
				fn(t, p, tm.Config{ClockMode: string(mode), HTMMaxRetries: 8})
			})
		}
	}
}

// distinctWords returns n words covered by n different orecs, so that a
// commit to one never disturbs another's version.
func distinctWords(t *testing.T, sys *tm.System, n int) []*uint64 {
	t.Helper()
	pool := make([]uint64, 64)
	seen := map[uint32]bool{}
	var out []*uint64
	for i := range pool {
		if idx := sys.Table.IndexOf(&pool[i]); !seen[idx] {
			seen[idx] = true
			out = append(out, &pool[i])
			if len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("no %d words on distinct orecs among %d", n, len(pool))
	return nil
}

func assertNoOrecLocked(t *testing.T, sys *tm.System) {
	t.Helper()
	for idx := 0; idx < sys.Table.Len(); idx++ {
		if locktable.Locked(sys.Table.Get(uint32(idx))) {
			t.Fatalf("orec %d left locked", idx)
		}
	}
}

// TestProtocolExtension: a transaction reads a, a concurrent writer
// commits b, and the transaction then reads the too-new b. With no
// timestamp extension (the "off" case, the only one the protocol has)
// Appendix A's TxRead aborts there on every path, and the re-execution
// reads the new b. Under the deferred clock the re-execution starts late
// enough to read it only because the aborting read reported b's version to
// the clock (NoteStale); without that every attempt trips over b again.
func TestProtocolExtension(t *testing.T) {
	forEachProtocolPath(t, func(t *testing.T, p protocolPath, cfg tm.Config) {
		t.Run("off", func(t *testing.T) {
			sys := tm.NewSystem(cfg, p.mk)
			t1, t2 := sys.NewThread(), sys.NewThread()
			ws := distinctWords(t, sys, 2)
			a, b := ws[0], ws[1]
			attempts, fired := 0, false
			var seenA, seenB uint64
			t1.Atomic(func(tx *tm.Tx) {
				p.enter(t, tx)
				attempts++
				seenA = tx.Read(a)
				if !fired {
					fired = true
					// Hide t1's attempt from the nested commit's quiescence
					// wait, which would otherwise wait on it forever.
					st := t1.ActiveStart.Swap(0)
					t2.Atomic(func(tx2 *tm.Tx) { tx2.Write(b, 7) })
					t1.ActiveStart.Store(st)
				}
				seenB = tx.Read(b)
			})
			if attempts < 2 {
				t.Errorf("%d attempts, want an abort (≥2)", attempts)
			}
			if seenA != 0 || seenB != 7 {
				t.Errorf("final attempt read a=%d b=%d, want 0,7", seenA, seenB)
			}
		})
	})
}

// TestProtocolRollbackRepublishes: an attempt that aborts holding a lock
// releases it unlocked at the old version plus one, and under the clock
// modes whose Bump moves the shared word the clock already covers that
// version when it becomes visible. The abort is forced by locking the
// second written orec out from under the attempt with a foreign owner.
func TestProtocolRollbackRepublishes(t *testing.T) {
	forEachProtocolPath(t, func(t *testing.T, p protocolPath, cfg tm.Config) {
		sys := tm.NewSystem(cfg, p.mk)
		thr := sys.NewThread()
		ws := distinctWords(t, sys, 2)
		b, c := ws[0], ws[1]
		idxB, idxC := sys.Table.IndexOf(b), sys.Table.IndexOf(c)
		// Give b's orec a history, so "old version + 1" is not trivially 1,
		// and let the clock catch up with it (the deferred clock publishes
		// ahead of the shared word; a reader's too-new abort advances it).
		thr.Atomic(func(tx *tm.Tx) { tx.Write(b, 1) })
		thr.Atomic(func(tx *tm.Tx) {
			p.enter(t, tx)
			tx.Read(b)
		})
		oldB, oldC := sys.Table.Get(idxB), sys.Table.Get(idxC)

		attempts := 0
		thr.Atomic(func(tx *tm.Tx) {
			p.enter(t, tx)
			attempts++
			switch attempts {
			case 1:
				sys.Table.Set(idxC, locktable.LockedBy(locktable.MaxOwner, locktable.Version(oldC)))
			case 2:
				want := locktable.Version(oldB) + 1
				if w := sys.Table.Get(idxB); w != locktable.UnlockedAt(want) {
					t.Errorf("released orec = %+v, want unlocked at version %d", locktable.Decode(w), want)
				}
				if now := sys.Clock.Now(); cfg.ClockMode != string(clock.Deferred) && now < want {
					t.Errorf("clock = %d behind the republished version %d", now, want)
				}
				sys.Table.Set(idxC, oldC)
			}
			tx.Write(b, 2)
			tx.Write(c, 3)
		})
		if attempts < 2 || *b != 2 || *c != 3 {
			t.Fatalf("attempts=%d b=%d c=%d, want ≥2, 2, 3", attempts, *b, *c)
		}
		assertNoOrecLocked(t, sys)
	})
}

// TestProtocolVersionsStrictlyIncrease is the MaxLockVer regression:
// back-to-back commits to one orec must publish strictly increasing
// versions even when the shared clock word never moves between them
// (deferred), or ReadCommitted's unchanged-word recheck could miss an
// intervening commit.
func TestProtocolVersionsStrictlyIncrease(t *testing.T) {
	forEachProtocolPath(t, func(t *testing.T, p protocolPath, cfg tm.Config) {
		sys := tm.NewSystem(cfg, p.mk)
		thr := sys.NewThread()
		var x uint64
		idx := sys.Table.IndexOf(&x)
		prev := locktable.Version(sys.Table.Get(idx))
		for i := uint64(1); i <= 5; i++ {
			thr.Atomic(func(tx *tm.Tx) {
				p.enter(t, tx)
				tx.Write(&x, i)
			})
			v := locktable.Version(sys.Table.Get(idx))
			if v <= prev {
				t.Fatalf("commit %d published version %d, not above %d", i, v, prev)
			}
			prev = v
		}
	})
}

// TestProtocolWriteOrecsCoverWrites: the post-commit wakeup examines only
// the waiters whose waitset shares an orec slot with the write orecs the
// PostCommit hook is handed, so on every way a write can commit that set
// must hold the covering slot of every word stored to — locked or not —
// and, the filter being a product of sizes, hold it once. Beyond the
// paths the rest of this file runs, that is htm's serial mode and an
// irrevocable section on each engine.
func TestProtocolWriteOrecsCoverWrites(t *testing.T) {
	paths := append([]protocolPath{
		{name: "htm-serial", mk: htm.New, mode: tm.ModeSerial, software: true},
		{name: "eager-irrevocable", mk: eager.New, mode: tm.ModeSTM, irrevocable: true},
		{name: "lazy-irrevocable", mk: lazy.New, mode: tm.ModeSTM, irrevocable: true},
		{name: "htm-irrevocable", mk: htm.New, mode: tm.ModeSerial, irrevocable: true},
		{name: "hybrid-irrevocable", mk: hybrid.New, mode: tm.ModeSTM, irrevocable: true},
	}, protocolPaths...)
	forEachPath(t, paths, func(t *testing.T, p protocolPath, cfg tm.Config) {
		sys := tm.NewSystem(cfg, p.mk)
		var orecs, stripes []uint32
		fired := 0
		sys.PostCommit = func(_ *tm.Thread, writeOrecs, writeStripes []uint32) {
			fired++
			orecs = append(orecs, writeOrecs...)
			stripes = append(stripes, writeStripes...)
		}
		ws := distinctWords(t, sys, 3)
		sys.NewThread().Atomic(func(tx *tm.Tx) {
			if p.irrevocable {
				tx.Irrevocable()
			}
			p.enter(t, tx)
			for i, w := range ws {
				tx.Write(w, uint64(i)+1)
			}
			tx.Write(ws[0], tx.Read(ws[0])+10) // a second store under a slot already held
		})
		if fired != 1 {
			t.Fatalf("PostCommit fired %d times, want 1", fired)
		}
		for i, w := range ws {
			idx := sys.Table.IndexOf(w)
			if !slices.Contains(orecs, idx) {
				t.Errorf("word %d was stored to but its orec slot %d is not in the write orecs %v", i, idx, orecs)
			}
			if s := sys.Table.StripeOf(idx); !slices.Contains(stripes, s) {
				t.Errorf("word %d was stored to but its stripe %d is not in the write stripes %v", i, s, stripes)
			}
		}
		if len(orecs) != len(ws) {
			t.Errorf("write orecs %v: %d slots recorded for %d stored words on distinct orecs", orecs, len(orecs), len(ws))
		}
	})
}
