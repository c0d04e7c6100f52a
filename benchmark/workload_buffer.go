package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/buffer"
	"tmsync/internal/mech"
)

// The paper's bounded buffer (Figs 2.3–2.5): nproc/2 producers and nproc/2
// consumers on one capacity-4 buffer, half prefilled before each segment.
// An op is one put or one get; op k of a worker uses bufferMechs[k mod 3].
const (
	bufferCap  = 4
	bufferPill = ^uint64(0) // ends one consumer; put after the producers stop
)

var bufferMechs = [3]mech.Mechanism{mech.Retry, mech.Await, mech.WaitPred}

// An item is producer id (8 bits) | sequence (40 bits) | payload (16 bits).
func bufferItem(pid int, seq, payload uint64) uint64 {
	return uint64(pid)<<56 | seq<<16 | payload&0xffff
}

type bufferWorkload struct{ cfg runConfig }

func newBufferWorkload(cfg runConfig) *bufferWorkload { return &bufferWorkload{cfg: cfg} }

type bufferProducer struct {
	thr  *tmsync.Thread
	id   int
	rng  *rand.Rand // seeded payload stream
	seq  uint64
	puts uint64
	sum  uint64
}

func (p *bufferProducer) next() uint64 {
	p.seq++
	it := bufferItem(p.id, p.seq, p.rng.Uint64())
	p.puts++
	p.sum += it
	return it
}

// bufferConsumer checks, as it goes, that every producer's sequence numbers
// reach it in increasing order (FIFO and no duplicates).
type bufferConsumer struct {
	thr     *tmsync.Thread
	lastSeq []uint64 // per producer id
	gets    uint64
	sum     uint64
	k       uint64
}

// observe folds one received item into the tallies and reports whether it
// respected its producer's order.
func (c *bufferConsumer) observe(it uint64) bool {
	pid, seq := int(it>>56), it>>16&(1<<40-1)
	c.gets++
	c.sum += it
	if pid >= len(c.lastSeq) || seq <= c.lastSeq[pid] {
		return false
	}
	c.lastSeq[pid] = seq
	return true
}

type bufferInstance struct {
	sys       *tmsync.System
	buf       *buffer.TMBuffer
	producers []*bufferProducer
	consumers []*bufferConsumer
	filler    *bufferProducer // the prefill and the pills come from here
}

func (w *bufferWorkload) build(e tmsync.EngineKind, tr *tracer) instance {
	sys := tmsync.New(e, tmsync.Config{})
	if tr != nil {
		tr.hook(sys, e)
	}
	half := w.cfg.nproc / 2
	in := &bufferInstance{sys: sys, buf: buffer.NewTM(bufferCap)}
	mk := func(id int) *bufferProducer {
		return &bufferProducer{thr: sys.NewThread(), id: id,
			rng: rand.New(rand.NewSource(int64(w.cfg.seed)*257 + int64(id)))}
	}
	for i := 0; i < half; i++ {
		in.producers = append(in.producers, mk(i))
		in.consumers = append(in.consumers, &bufferConsumer{thr: sys.NewThread(), lastSeq: make([]uint64, half+1)})
	}
	in.filler = mk(half)
	return in
}

func (in *bufferInstance) workers() int             { return len(in.producers) + len(in.consumers) }
func (in *bufferInstance) stats() map[string]uint64 { return in.sys.Stats.Snapshot() }
func (in *bufferInstance) waiting() int             { return in.sys.CS.WaitingLen() }

func (in *bufferInstance) segment(stop *atomic.Bool, recs []*recorder) {
	// No transaction is in flight between segments, which is what the
	// non-transactional Prefill requires.
	pre := make([]uint64, bufferCap/2)
	for i := range pre {
		pre[i] = in.filler.next()
	}
	in.buf.Prefill(pre)

	var prod, cons sync.WaitGroup
	for i, p := range in.producers {
		prod.Add(1)
		go func(p *bufferProducer, r *recorder) {
			defer prod.Done()
			for k := uint64(0); !stop.Load(); k++ {
				m := bufferMechs[k%3]
				it := p.next()
				t0 := r.begin(k)
				in.buf.PutMech(p.thr, m, it)
				r.end(t0, "buffer.PutMech", m)
				r.ops++
			}
			p.thr.Detach()
			r.exited.Store(true)
		}(p, recs[i])
	}
	for i, c := range in.consumers {
		cons.Add(1)
		go func(c *bufferConsumer, r *recorder) {
			defer cons.Done()
			for {
				m := bufferMechs[c.k%3]
				t0 := r.begin(c.k)
				it := in.buf.GetMech(c.thr, m)
				if it == bufferPill {
					break
				}
				r.end(t0, "buffer.GetMech", m)
				c.k++
				if c.observe(it) {
					r.ops++
				} else {
					r.failed.Add(1)
				}
			}
			c.thr.Detach()
			r.exited.Store(true)
		}(c, recs[len(in.producers)+i])
	}
	prod.Wait()
	for range in.consumers {
		in.buf.PutMech(in.filler.thr, mech.Retry, bufferPill)
	}
	cons.Wait()
}

// bufferTally is what the end-of-workload check is computed from.
type bufferTally struct {
	puts, gets, residue uint64
	sumPut, sumGot      uint64
}

func (in *bufferInstance) tally() bufferTally {
	t := bufferTally{puts: in.filler.puts, sumPut: in.filler.sum}
	for _, p := range in.producers {
		t.puts += p.puts
		t.sumPut += p.sum
	}
	for _, c := range in.consumers {
		t.gets += c.gets
		t.sumGot += c.sum
	}
	in.filler.thr.Atomic(func(tx *tmsync.Tx) { t.residue = in.buf.Count(tx) })
	return t
}

// failures: every item put was got (the pills drain the buffer, so nothing
// may be left), and the payloads that came out are the ones that went in.
func (t bufferTally) failures() uint64 {
	var f uint64
	if t.puts != t.gets+t.residue {
		f++
	}
	if t.residue != 0 {
		f++
	}
	if t.sumPut != t.sumGot {
		f++
	}
	return f
}

func (in *bufferInstance) finish(time.Duration) (attempted, failed uint64) {
	return 3, in.tally().failures()
}

// baseline is the same producers and consumers on buffer.LockBuffer.
func (w *bufferWorkload) baseline(stop *atomic.Bool) uint64 {
	b := buffer.NewLock(bufferCap)
	b.Prefill([]uint64{1, 2})
	half := w.cfg.nproc / 2
	var total atomic.Uint64
	var prod, cons sync.WaitGroup
	for i := 0; i < half; i++ {
		prod.Add(1)
		go func() {
			defer prod.Done()
			var k uint64
			for ; !stop.Load(); k++ {
				b.Put(k + 1)
			}
			total.Add(k)
		}()
		cons.Add(1)
		go func() {
			defer cons.Done()
			var k uint64
			for b.Get() != bufferPill {
				k++
			}
			total.Add(k)
		}()
	}
	prod.Wait()
	for i := 0; i < half; i++ {
		b.Put(bufferPill)
	}
	cons.Wait()
	return total.Load()
}
