// Package buffer implements the multi-producer multi-consumer bounded
// buffer of the evaluation (Figure 2.2 / Algorithm 2) in all seven
// condition-synchronization variants the paper compares:
//
//	Pthreads   lock + condition variables (no TM)        → LockBuffer
//	TMCondVar  transactions + transaction-safe condvars  → PutCondVar/GetCondVar
//	WaitPred   transactions + explicit predicates        → PutPred/GetPred
//	Await      transactions + static address list        → PutAwait/GetAwait
//	Retry      transactions + dynamic read set           → PutRetry/GetRetry
//	Retry-Orig original metadata-based retry (STM only)  → PutOrig/GetOrig
//	Restart    abort-and-respin                          → PutRestart/GetRestart
package buffer

import (
	"sync"

	"tmsync/internal/condvar"
	"tmsync/internal/core"
	"tmsync/internal/mech"
	"tmsync/internal/mem"
	"tmsync/internal/tm"
)

// TMBuffer is the transactional bounded buffer. All its methods run inside
// (possibly nested) transactions and may be composed into larger atomic
// operations.
type TMBuffer struct {
	buf      *mem.Array
	capacity uint64
	count    mem.Var
	nextprod mem.Var
	nextcons mem.Var

	notempty *condvar.Var // consumers wait here (TMCondVar variant)
	notfull  *condvar.Var // producers wait here (TMCondVar variant)

	notFullPred  core.Pred
	notEmptyPred core.Pred
}

// NewTM returns an empty transactional buffer with the given capacity.
func NewTM(capacity int) *TMBuffer {
	b := &TMBuffer{
		buf:      mem.NewArray(capacity),
		capacity: uint64(capacity),
		notempty: condvar.New(),
		notfull:  condvar.New(),
	}
	b.notFullPred = func(tx *tm.Tx, _ []uint64) bool { return !b.full(tx) }
	b.notEmptyPred = func(tx *tm.Tx, _ []uint64) bool { return !b.empty(tx) }
	return b
}

// Cap returns the buffer capacity.
func (b *TMBuffer) Cap() int { return int(b.capacity) }

// Count reads the current element count transactionally.
func (b *TMBuffer) Count(tx *tm.Tx) uint64 { return b.count.Get(tx) }

// Prefill inserts vals without transactions; the caller must guarantee no
// transactions are in flight (experiment setup: "we half-fill the buffer
// before starting each experiment").
func (b *TMBuffer) Prefill(vals []uint64) {
	if uint64(len(vals)) > b.capacity {
		panic("buffer: prefill exceeds capacity")
	}
	for i, v := range vals {
		b.buf.Store(i, v)
	}
	b.nextprod.Store(uint64(len(vals)) % b.capacity)
	b.nextcons.Store(0)
	b.count.Store(uint64(len(vals)))
}

// Internal methods of Algorithm 2.

func (b *TMBuffer) full(tx *tm.Tx) bool  { return b.count.Get(tx) == b.capacity }
func (b *TMBuffer) empty(tx *tm.Tx) bool { return b.count.Get(tx) == 0 }

func (b *TMBuffer) put(tx *tm.Tx, x uint64) {
	np := b.nextprod.Get(tx)
	b.buf.Set(tx, int(np), x)
	b.nextprod.Set(tx, (np+1)%b.capacity)
	b.count.Set(tx, b.count.Get(tx)+1)
}

func (b *TMBuffer) get(tx *tm.Tx) uint64 {
	nc := b.nextcons.Get(tx)
	x := b.buf.Get(tx, int(nc))
	b.nextcons.Set(tx, (nc+1)%b.capacity)
	b.count.Set(tx, b.count.Get(tx)-1)
	return x
}

// Full reports whether the buffer is full, transactionally.
func (b *TMBuffer) Full(tx *tm.Tx) bool { return b.full(tx) }

// Empty reports whether the buffer is empty, transactionally.
func (b *TMBuffer) Empty(tx *tm.Tx) bool { return b.empty(tx) }

// Put inserts x; the caller must already be inside a transaction and must
// have established ¬Full. Exposed for composition (Algorithm 3).
func (b *TMBuffer) Put(tx *tm.Tx, x uint64) { b.put(tx, x) }

// Get removes and returns an element; the caller must already be inside a
// transaction and must have established ¬Empty.
func (b *TMBuffer) Get(tx *tm.Tx) uint64 { return b.get(tx) }

// ----- WaitPred variant (Figure 2.2, left column) -----

// PutPred inserts x, waiting on the ¬Full predicate when necessary.
func (b *TMBuffer) PutPred(thr *tm.Thread, x uint64) {
	thr.Atomic(func(tx *tm.Tx) {
		if b.full(tx) {
			core.WaitPred(tx, b.notFullPred)
		}
		b.put(tx, x)
	})
}

// GetPred removes an element, waiting on the ¬Empty predicate.
func (b *TMBuffer) GetPred(thr *tm.Thread) uint64 {
	var out uint64
	thr.Atomic(func(tx *tm.Tx) {
		if b.empty(tx) {
			core.WaitPred(tx, b.notEmptyPred)
		}
		out = b.get(tx)
	})
	return out
}

// ----- Await variant (Figure 2.2, middle column) -----

// PutAwait inserts x, waiting on changes to &count when full.
func (b *TMBuffer) PutAwait(thr *tm.Thread, x uint64) {
	thr.Atomic(func(tx *tm.Tx) {
		if b.full(tx) {
			core.Await(tx, b.count.Addr())
		}
		b.put(tx, x)
	})
}

// GetAwait removes an element, waiting on changes to &count when empty.
func (b *TMBuffer) GetAwait(thr *tm.Thread) uint64 {
	var out uint64
	thr.Atomic(func(tx *tm.Tx) {
		if b.empty(tx) {
			core.Await(tx, b.count.Addr())
		}
		out = b.get(tx)
	})
	return out
}

// ----- Retry variant (Figure 2.2, right column) -----

// PutRetry inserts x, retrying on the dynamic read set when full.
func (b *TMBuffer) PutRetry(thr *tm.Thread, x uint64) {
	thr.Atomic(func(tx *tm.Tx) {
		if b.full(tx) {
			core.Retry(tx)
		}
		b.put(tx, x)
	})
}

// GetRetry removes an element, retrying on the dynamic read set when empty.
func (b *TMBuffer) GetRetry(thr *tm.Thread) uint64 {
	var out uint64
	thr.Atomic(func(tx *tm.Tx) {
		if b.empty(tx) {
			core.Retry(tx)
		}
		out = b.get(tx)
	})
	return out
}

// ----- Retry-Orig variant (Algorithm 1; STM engines only) -----

// PutOrig inserts x using the original metadata-based Retry.
func (b *TMBuffer) PutOrig(thr *tm.Thread, x uint64) {
	thr.Atomic(func(tx *tm.Tx) {
		if b.full(tx) {
			core.RetryOrig(tx)
		}
		b.put(tx, x)
	})
}

// GetOrig removes an element using the original metadata-based Retry.
func (b *TMBuffer) GetOrig(thr *tm.Thread) uint64 {
	var out uint64
	thr.Atomic(func(tx *tm.Tx) {
		if b.empty(tx) {
			core.RetryOrig(tx)
		}
		out = b.get(tx)
	})
	return out
}

// ----- Restart variant (abort and immediately re-attempt) -----

// PutRestart inserts x, spinning via immediate restarts while full.
func (b *TMBuffer) PutRestart(thr *tm.Thread, x uint64) {
	thr.Atomic(func(tx *tm.Tx) {
		if b.full(tx) {
			tx.Restart()
		}
		b.put(tx, x)
	})
}

// GetRestart removes an element, spinning via immediate restarts while empty.
func (b *TMBuffer) GetRestart(thr *tm.Thread) uint64 {
	var out uint64
	thr.Atomic(func(tx *tm.Tx) {
		if b.empty(tx) {
			tx.Restart()
		}
		out = b.get(tx)
	})
	return out
}

// ----- TMCondVar variant (Algorithm 2 as written) -----

// PutCondVar inserts x using transaction-safe condition variables; the
// wait commits the in-flight transaction (breaking atomicity) and the
// block re-executes on wakeup, reproducing Algorithm 2's retry loop.
func (b *TMBuffer) PutCondVar(thr *tm.Thread, x uint64) {
	thr.Atomic(func(tx *tm.Tx) {
		if b.full(tx) {
			b.notfull.Wait(tx)
		}
		b.put(tx, x)
		b.notempty.Signal(tx)
	})
}

// GetCondVar removes an element using transaction-safe condition variables.
func (b *TMBuffer) GetCondVar(thr *tm.Thread) uint64 {
	var out uint64
	thr.Atomic(func(tx *tm.Tx) {
		if b.empty(tx) {
			b.notempty.Wait(tx)
		}
		out = b.get(tx)
		b.notfull.Signal(tx)
	})
	return out
}

// PutMech dispatches to the named mechanism.
func (b *TMBuffer) PutMech(thr *tm.Thread, m mech.Mechanism, x uint64) {
	switch m {
	case mech.TMCondVar:
		b.PutCondVar(thr, x)
	case mech.WaitPred:
		b.PutPred(thr, x)
	case mech.Await:
		b.PutAwait(thr, x)
	case mech.Retry:
		b.PutRetry(thr, x)
	case mech.RetryOrig:
		b.PutOrig(thr, x)
	case mech.Restart:
		b.PutRestart(thr, x)
	default:
		panic("buffer: mechanism " + string(m) + " is not transactional")
	}
}

// GetMech dispatches to the named mechanism.
func (b *TMBuffer) GetMech(thr *tm.Thread, m mech.Mechanism) uint64 {
	switch m {
	case mech.TMCondVar:
		return b.GetCondVar(thr)
	case mech.WaitPred:
		return b.GetPred(thr)
	case mech.Await:
		return b.GetAwait(thr)
	case mech.Retry:
		return b.GetRetry(thr)
	case mech.RetryOrig:
		return b.GetOrig(thr)
	case mech.Restart:
		return b.GetRestart(thr)
	default:
		panic("buffer: mechanism " + string(m) + " is not transactional")
	}
}

// LockBuffer is the Pthreads baseline: a mutex-protected bounded buffer
// with standard condition variables.
type LockBuffer struct {
	mu       sync.Mutex
	notfull  *sync.Cond
	notempty *sync.Cond
	buf      []uint64
	count    int
	nextprod int
	nextcons int
}

// NewLock returns an empty lock-based buffer with the given capacity.
func NewLock(capacity int) *LockBuffer {
	b := &LockBuffer{buf: make([]uint64, capacity)}
	b.notfull = sync.NewCond(&b.mu)
	b.notempty = sync.NewCond(&b.mu)
	return b
}

// Prefill inserts vals before any concurrency begins.
func (b *LockBuffer) Prefill(vals []uint64) {
	copy(b.buf, vals)
	b.count = len(vals)
	b.nextprod = len(vals) % len(b.buf)
	b.nextcons = 0
}

// Put inserts x, blocking while the buffer is full.
func (b *LockBuffer) Put(x uint64) {
	b.mu.Lock()
	for b.count == len(b.buf) {
		b.notfull.Wait()
	}
	b.buf[b.nextprod] = x
	b.nextprod = (b.nextprod + 1) % len(b.buf)
	b.count++
	b.notempty.Signal()
	b.mu.Unlock()
}

// Get removes an element, blocking while the buffer is empty.
func (b *LockBuffer) Get() uint64 {
	b.mu.Lock()
	for b.count == 0 {
		b.notempty.Wait()
	}
	x := b.buf[b.nextcons]
	b.nextcons = (b.nextcons + 1) % len(b.buf)
	b.count--
	b.notfull.Signal()
	b.mu.Unlock()
	return x
}

// Count returns the current element count.
func (b *LockBuffer) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}
