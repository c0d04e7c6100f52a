package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/buffer"
	"tmsync/internal/mech"
)

// handoffMechs is the rotation of op k's mechanism; both ends of a pair use
// the same one for the same op.
var handoffMechs = [3]mech.Mechanism{mech.Retry, mech.Await, mech.WaitPred}

// handoffQuit ends a responder. Real requests are sequence numbers ≥ 1.
const handoffQuit = ^uint64(0)

type handoffWorkload struct{ cfg runConfig }

func newHandoffWorkload(cfg runConfig) *handoffWorkload { return &handoffWorkload{cfg: cfg} }

// handoffPair is one requester and one responder sharing two capacity-1
// mailboxes. An op is one request→response round trip on the requester's
// clock; with capacity 1 nearly every Put and Get finds its mailbox in the
// wrong state first, so nearly every op sleeps and is woken.
type handoffPair struct {
	req, resp      *buffer.TMBuffer
	reqThr, rspThr *tmsync.Thread
	sent, served   uint64 // round trips so far, across segments
	// mechs is the rotation; the layer probe pins it to one mechanism.
	mechs []mech.Mechanism
}

type handoffInstance struct {
	sys   *tmsync.System
	pairs []*handoffPair
}

func newHandoffInstance(e tmsync.EngineKind, tr *tracer, pairs int, mechs []mech.Mechanism) *handoffInstance {
	sys := tmsync.New(e, tmsync.Config{})
	if tr != nil {
		tr.hook(sys, e)
	}
	in := &handoffInstance{sys: sys}
	for i := 0; i < pairs; i++ {
		in.pairs = append(in.pairs, &handoffPair{
			req: buffer.NewTM(1), resp: buffer.NewTM(1),
			reqThr: sys.NewThread(), rspThr: sys.NewThread(),
			mechs: mechs,
		})
	}
	return in
}

func (w *handoffWorkload) build(e tmsync.EngineKind, tr *tracer) instance {
	return newHandoffInstance(e, tr, w.cfg.nproc/2, handoffMechs[:])
}

func (in *handoffInstance) workers() int             { return len(in.pairs) }
func (in *handoffInstance) stats() map[string]uint64 { return in.sys.Stats.Snapshot() }
func (in *handoffInstance) waiting() int             { return in.sys.CS.WaitingLen() }

func (in *handoffInstance) segment(stop *atomic.Bool, recs []*recorder) {
	var wg sync.WaitGroup
	for i, p := range in.pairs {
		wg.Add(2)
		go func(p *handoffPair, r *recorder) {
			defer wg.Done()
			p.request(stop, r)
			p.reqThr.Detach()
			r.exited.Store(true)
		}(p, recs[i])
		go func(p *handoffPair, r *recorder) {
			defer wg.Done()
			bad := p.respond()
			p.rspThr.Detach()
			r.failed.Add(bad)
		}(p, recs[i])
	}
	wg.Wait()
}

func (p *handoffPair) request(stop *atomic.Bool, r *recorder) {
	for !stop.Load() {
		m := p.mechs[p.sent%uint64(len(p.mechs))]
		seq := p.sent + 1
		t0 := r.begin(p.sent)
		p.req.PutMech(p.reqThr, m, seq)
		echo := p.resp.GetMech(p.reqThr, m)
		r.end(t0, "buffer.PutMech+GetMech", m)
		p.sent++
		if echo == seq {
			r.ops++
		} else {
			r.failed.Add(1)
		}
	}
	// The responder is waiting with op sent+1's mechanism; a condition
	// variable is only signalled by its own kind of Put.
	p.req.PutMech(p.reqThr, p.mechs[p.sent%uint64(len(p.mechs))], handoffQuit)
}

// respond echoes requests until told to quit and returns how many arrived
// out of order or were missing.
func (p *handoffPair) respond() (bad uint64) {
	for {
		m := p.mechs[p.served%uint64(len(p.mechs))]
		seq := p.req.GetMech(p.rspThr, m)
		if seq == handoffQuit {
			return bad
		}
		p.served++
		if seq != p.served {
			bad++
		}
		p.resp.PutMech(p.rspThr, m, seq)
	}
}

// finish: both ends must have counted the same round trips, and the
// mailboxes must be empty.
func (in *handoffInstance) finish(time.Duration) (attempted, failed uint64) {
	for _, p := range in.pairs {
		attempted++
		var left uint64
		p.reqThr.Atomic(func(tx *tmsync.Tx) { left = p.req.Count(tx) + p.resp.Count(tx) })
		if p.sent != p.served || left != 0 {
			failed++
		}
	}
	return attempted, failed
}

// baseline is the same round trip over two capacity-1 lock buffers.
func (w *handoffWorkload) baseline(stop *atomic.Bool) uint64 {
	var total atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.nproc/2; i++ {
		req, resp := buffer.NewLock(1), buffer.NewLock(1)
		wg.Add(2)
		go func() {
			defer wg.Done()
			var k uint64
			for !stop.Load() {
				req.Put(k + 1)
				resp.Get()
				k++
			}
			req.Put(handoffQuit)
			total.Add(k)
		}()
		go func() {
			defer wg.Done()
			for {
				v := req.Get()
				if v == handoffQuit {
					return
				}
				resp.Put(v)
			}
		}()
	}
	wg.Wait()
	return total.Load()
}
