// Package parsecsim reproduces the concurrency skeletons of the eight
// PARSEC benchmarks that use condition variables (Table 2.1), each
// runnable under all seven condition-synchronization mechanisms. The
// image/video kernels themselves are replaced by a deterministic
// arithmetic workload; what the paper evaluates — and what these skeletons
// preserve — is the synchronization structure: pipelines with bounded
// queues (dedup, ferret), thread pools with completion counters (bodytrack,
// facesim, raytrace), barrier-phased iteration (fluidanimate,
// streamcluster), and frame-dependency waits (x264).
package parsecsim

import (
	"sync"

	"tmsync/internal/buffer"
	"tmsync/internal/condvar"
	"tmsync/internal/core"
	"tmsync/internal/mech"
	"tmsync/internal/mem"
	"tmsync/internal/tm"
)

// Kit binds a workload run to one mechanism and (for transactional
// mechanisms) one TM system. Sys is nil iff Mech == Pthreads.
type Kit struct {
	Mech mech.Mechanism
	Sys  *tm.System
}

// NewThread returns a TM thread handle, or nil for the Pthreads baseline.
func (k *Kit) NewThread() *tm.Thread {
	if k.Sys == nil {
		return nil
	}
	return k.Sys.NewThread()
}

// Counter is a shared counter with a "wait until at least N" operation —
// the workhorse behind completion counters, start gates, termination
// flags, and frame-progress waits. Each mechanism supplies its own wait
// implementation; increments broadcast under Pthreads because waiters may
// have different targets. Only the kit's mechanism's waiting state is
// built: cond under Pthreads, tcv under TMCondVar, pred under WaitPred.
type Counter struct {
	k *Kit

	v    mem.Var // transactional representation
	pred core.Pred

	mu   sync.Mutex // Pthreads representation
	cond *sync.Cond
	pv   uint64

	tcv *condvar.Var // TMCondVar representation
}

// NewCounter returns a counter starting at zero.
func (k *Kit) NewCounter() *Counter {
	c := &Counter{k: k}
	switch k.Mech {
	case mech.Pthreads:
		c.cond = sync.NewCond(&c.mu)
	case mech.TMCondVar:
		c.tcv = condvar.New()
	case mech.WaitPred:
		c.pred = func(tx *tm.Tx, args []uint64) bool { return c.v.Get(tx) >= args[0] }
	}
	return c
}

// Add increments the counter by delta and wakes eligible waiters.
func (c *Counter) Add(thr *tm.Thread, delta uint64) {
	if c.k.Mech == mech.Pthreads {
		c.mu.Lock()
		c.pv += delta
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	thr.Atomic(func(tx *tm.Tx) {
		c.v.Set(tx, c.v.Get(tx)+delta)
		if c.k.Mech == mech.TMCondVar {
			c.tcv.Broadcast(tx)
		}
	})
}

// Set stores an absolute value (setup and flag use).
func (c *Counter) Set(thr *tm.Thread, val uint64) {
	if c.k.Mech == mech.Pthreads {
		c.mu.Lock()
		c.pv = val
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	thr.Atomic(func(tx *tm.Tx) {
		c.v.Set(tx, val)
		if c.k.Mech == mech.TMCondVar {
			c.tcv.Broadcast(tx)
		}
	})
}

// InitValue stores an initial value before any concurrency begins
// (setup only; no waiters can exist yet).
func (c *Counter) InitValue(v uint64) {
	c.v.Store(v)
	c.pv = v
}

// Value reads the counter (mechanism-appropriate synchronization).
func (c *Counter) Value(thr *tm.Thread) uint64 {
	if c.k.Mech == mech.Pthreads {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pv
	}
	var out uint64
	thr.Atomic(func(tx *tm.Tx) { out = c.v.Get(tx) })
	return out
}

// WaitAtLeast blocks until the counter reaches target. This is a
// condition-synchronization point; the body is the per-mechanism
// translation of "while (count < target) wait" from the PARSEC ports.
func (c *Counter) WaitAtLeast(thr *tm.Thread, target uint64) {
	if c.k.Mech == mech.Pthreads {
		c.mu.Lock()
		for c.pv < target {
			c.cond.Wait()
		}
		c.mu.Unlock()
		return
	}
	thr.Atomic(func(tx *tm.Tx) {
		if c.v.Get(tx) >= target {
			return
		}
		switch c.k.Mech {
		case mech.TMCondVar:
			c.tcv.Wait(tx)
		case mech.WaitPred:
			core.WaitPred(tx, c.pred, target)
		case mech.Await:
			core.Await(tx, c.v.Addr())
		case mech.Retry:
			core.Retry(tx)
		case mech.RetryOrig:
			core.RetryOrig(tx)
		case mech.Restart:
			tx.Restart()
		}
	})
}

// Barrier is a reusable sense-reversing barrier. As §2.3 observes, the
// classic two-wait reusable barrier cannot be obtained from condition
// variables by simple substitution; the sense-reversing restructuring
// below is the redesign the paper anticipates. As with Counter, only the
// kit's mechanism's waiting state is built.
type Barrier struct {
	k     *Kit
	n     uint64
	count mem.Var
	sense mem.Var
	pred  core.Pred

	mu            sync.Mutex
	cond          *sync.Cond
	pcount, psens uint64

	tcv *condvar.Var
}

// NewBarrier returns a barrier for n participants.
func (k *Kit) NewBarrier(n int) *Barrier {
	b := &Barrier{k: k, n: uint64(n)}
	switch k.Mech {
	case mech.Pthreads:
		b.cond = sync.NewCond(&b.mu)
	case mech.TMCondVar:
		b.tcv = condvar.New()
	case mech.WaitPred:
		b.pred = func(tx *tm.Tx, args []uint64) bool { return b.sense.Get(tx) != args[0] }
	}
	return b
}

// Arrive blocks until all n participants have arrived. local is the
// caller's sense word (start at 0, owned by one goroutine).
func (b *Barrier) Arrive(thr *tm.Thread, local *uint64) {
	old := *local
	*local = 1 - old
	if b.k.Mech == mech.Pthreads {
		b.mu.Lock()
		b.pcount++
		if b.pcount == b.n {
			b.pcount = 0
			b.psens = 1 - old
			b.cond.Broadcast()
		} else {
			for b.psens == old {
				b.cond.Wait()
			}
		}
		b.mu.Unlock()
		return
	}
	last := false
	thr.Atomic(func(tx *tm.Tx) {
		c := b.count.Get(tx) + 1
		if c == b.n {
			b.count.Set(tx, 0)
			b.sense.Set(tx, 1-old)
			last = true
			if b.k.Mech == mech.TMCondVar {
				b.tcv.Broadcast(tx)
			}
		} else {
			b.count.Set(tx, c)
		}
	})
	if last {
		return
	}
	thr.Atomic(func(tx *tm.Tx) {
		if b.sense.Get(tx) != old {
			return
		}
		switch b.k.Mech {
		case mech.TMCondVar:
			b.tcv.Wait(tx)
		case mech.WaitPred:
			core.WaitPred(tx, b.pred, old)
		case mech.Await:
			core.Await(tx, b.sense.Addr())
		case mech.Retry:
			core.Retry(tx)
		case mech.RetryOrig:
			core.RetryOrig(tx)
		case mech.Restart:
			tx.Restart()
		}
	})
}

// Queue is a bounded FIFO connecting pipeline stages, backed by the
// bounded buffer of Figure 2.2 in the mechanism-appropriate variant.
type Queue struct {
	k  *Kit
	tb *buffer.TMBuffer
	lb *buffer.LockBuffer
}

// NewQueue returns an empty bounded queue of the given capacity.
func (k *Kit) NewQueue(capacity int) *Queue {
	q := &Queue{k: k}
	if k.Mech == mech.Pthreads {
		q.lb = buffer.NewLock(capacity)
	} else {
		q.tb = buffer.NewTM(capacity)
	}
	return q
}

// Put inserts v, blocking while the queue is full.
func (q *Queue) Put(thr *tm.Thread, v uint64) {
	if q.k.Mech == mech.Pthreads {
		q.lb.Put(v)
		return
	}
	q.tb.PutMech(thr, q.k.Mech, v)
}

// Get removes an element, blocking while the queue is empty.
func (q *Queue) Get(thr *tm.Thread) uint64 {
	if q.k.Mech == mech.Pthreads {
		return q.lb.Get()
	}
	return q.tb.GetMech(thr, q.k.Mech)
}
