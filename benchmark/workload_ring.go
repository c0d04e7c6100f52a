package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/mech"
)

// The `private` and `sleepers` workloads share one writer loop: every
// goroutine runs 4-read/2-write transactions round its own ring of
// ringSlots words, one word per orec stripe. `sleepers` adds parked
// goroutines that each Await a word of their own, ringSleepers/stripes to a
// stripe, so every writer commit scans waiters it must not wake; every
// pokeEvery-th writer op then pokes one sleeper for real.
const (
	ringSlots    = 64
	ringSleepers = 256
	pokeEvery    = 256
	sleeperExit  = uint64(1) << 63
)

type ringWorkload struct {
	cfg      runConfig
	sleepers int
}

func newRingWorkload(cfg runConfig, sleepers int) *ringWorkload {
	return &ringWorkload{cfg: cfg, sleepers: sleepers}
}

type ringWriter struct {
	thr    *tmsync.Thread
	slots  []*uint64
	issued [ringSlots]uint64 // ops whose first slot was i
	k      uint64            // ops issued so far, across segments
	mine   []*sleeper        // in the seeded order this writer pokes them
	next   int
}

type sleeper struct {
	thr   *tmsync.Thread
	word  *uint64
	pokes uint64 // increments written to word (by the owning writer, then finish)
	seen  uint64 // last value the sleeper read; valid once it has exited
	wakes uint64
	gone  atomic.Bool
}

type ringInstance struct {
	sys      *tmsync.System
	writers  []*ringWriter
	sleepers []*sleeper
	parked   sync.WaitGroup
}

func (w *ringWorkload) build(e tmsync.EngineKind, tr *tracer) instance {
	sys := tmsync.New(e, tmsync.Config{})
	if tr != nil {
		tr.hook(sys, e)
	}
	in := &ringInstance{sys: sys}
	pl := newPlacer(sys)
	for g := 0; g < w.cfg.nproc; g++ {
		in.writers = append(in.writers, &ringWriter{thr: sys.NewThread(), slots: pl.words(ringSlots)})
	}
	words := pl.words(w.sleepers)
	for j := 0; j < w.sleepers; j++ {
		s := &sleeper{thr: sys.NewThread(), word: words[j]}
		in.sleepers = append(in.sleepers, s)
		owner := in.writers[j%len(in.writers)]
		owner.mine = append(owner.mine, s)
		in.parked.Add(1)
		go s.run(&in.parked)
	}
	for g, wr := range in.writers {
		rng := rand.New(rand.NewSource(int64(w.cfg.seed)*131 + int64(g)))
		rng.Shuffle(len(wr.mine), func(a, b int) { wr.mine[a], wr.mine[b] = wr.mine[b], wr.mine[a] })
	}
	// Set-up ends when every sleeper is asleep on its word.
	for sys.CS.WaitingLen() < w.sleepers {
		time.Sleep(50 * time.Microsecond)
	}
	return in
}

// run parks on the sleeper's word until it changes, over and over, and
// leaves when a poke carries the exit bit.
func (s *sleeper) run(wg *sync.WaitGroup) {
	defer wg.Done()
	var last, v uint64
	body := func(tx *tmsync.Tx) {
		v = tx.Read(s.word)
		if v == last {
			tmsync.Await(tx, s.word)
		}
	}
	for last&sleeperExit == 0 {
		s.thr.Atomic(body)
		last = v
		s.wakes++
	}
	s.seen = last &^ sleeperExit
	s.thr.Detach()
	s.gone.Store(true)
}

func poke(thr *tmsync.Thread, s *sleeper, bits uint64) {
	thr.Atomic(func(tx *tmsync.Tx) {
		tx.Write(s.word, (tx.Read(s.word)+1)|bits)
	})
	s.pokes++
}

func (in *ringInstance) workers() int             { return len(in.writers) }
func (in *ringInstance) stats() map[string]uint64 { return in.sys.Stats.Snapshot() }
func (in *ringInstance) waiting() int             { return in.sys.CS.WaitingLen() }

func (in *ringInstance) segment(stop *atomic.Bool, recs []*recorder) {
	var wg sync.WaitGroup
	for g, wr := range in.writers {
		wg.Add(1)
		go func(wr *ringWriter, r *recorder) {
			defer wg.Done()
			wr.loop(stop, r)
			wr.thr.Detach()
			r.exited.Store(true)
		}(wr, recs[g])
	}
	wg.Wait()
}

var ringSink uint64

func (wr *ringWriter) loop(stop *atomic.Bool, r *recorder) {
	var i int
	var sink uint64
	body := func(tx *tmsync.Tx) {
		a, b := wr.slots[i], wr.slots[(i+1)%ringSlots]
		r0, r1 := tx.Read(a), tx.Read(b)
		sink += tx.Read(wr.slots[(i+2)%ringSlots]) + tx.Read(wr.slots[(i+3)%ringSlots])
		tx.Write(a, r0+1)
		tx.Write(b, r1+1)
	}
	for !stop.Load() {
		i = int(wr.k % ringSlots)
		t0 := r.begin(wr.k)
		wr.thr.Atomic(body)
		r.end(t0, "tm.Atomic", "")
		wr.issued[i]++
		wr.k++
		r.ops++
		if len(wr.mine) > 0 && wr.k%pokeEvery == 0 {
			p0 := r.beginSpan()
			poke(wr.thr, wr.mine[wr.next], 0)
			r.endSpan(p0, "tm.Atomic/poke", mech.Await)
			wr.next = (wr.next + 1) % len(wr.mine)
		}
	}
	atomic.AddUint64(&ringSink, sink)
}

// finish checks every slot against the ops issued to it, releases the
// sleepers with a final poke, and checks that each saw every poke.
func (in *ringInstance) finish(watchdog time.Duration) (attempted, failed uint64) {
	for _, wr := range in.writers {
		for j, slot := range wr.slots {
			attempted++
			if atomic.LoadUint64(slot) != wr.issued[j]+wr.issued[(j+ringSlots-1)%ringSlots] {
				failed++
			}
		}
	}
	if len(in.sleepers) == 0 {
		return attempted, failed
	}
	closer := in.sys.NewThread()
	for _, s := range in.sleepers {
		poke(closer, s, sleeperExit)
	}
	closer.Detach()
	done := make(chan struct{})
	go func() {
		in.parked.Wait()
		close(done)
	}()
	// A sleeper still parked after the watchdog is counted through gone.
	waitOrDump(done, watchdog, "sleepers exit", in.waiting)
	for _, s := range in.sleepers {
		attempted++
		if !s.gone.Load() || s.seen != s.pokes {
			failed++
		}
	}
	return attempted, failed
}

// baseline is the same ring op under a private sync.Mutex per goroutine.
func (w *ringWorkload) baseline(stop *atomic.Bool) uint64 {
	var total atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < w.cfg.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mu sync.Mutex
			slots := make([]paddedWord, ringSlots)
			var k, sink uint64
			for !stop.Load() {
				i := int(k % ringSlots)
				mu.Lock()
				a, b := &slots[i].v, &slots[(i+1)%ringSlots].v
				sink += slots[(i+2)%ringSlots].v + slots[(i+3)%ringSlots].v
				*a, *b = *a+1, *b+1
				mu.Unlock()
				k++
			}
			atomic.AddUint64(&ringSink, sink)
			total.Add(k)
		}()
	}
	wg.Wait()
	return total.Load()
}

// paddedWord is one word alone on its cache line.
//
//tm:padded
type paddedWord struct {
	v uint64
	_ [56]byte
}
