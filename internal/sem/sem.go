// Package sem provides the per-thread binary semaphore used by the
// Deschedule mechanism (Algorithm 4): a waiter sleeps on its semaphore and
// any number of writers may signal it, with signals coalescing so that at
// most one wakeup token is buffered.
package sem

// Sem is a binary semaphore with coalescing signals. The zero value is not
// usable; construct with New.
type Sem struct {
	ch chan struct{}
}

// New returns a semaphore with no pending signal.
func New() *Sem {
	return &Sem{ch: make(chan struct{}, 1)}
}

// Signal posts a wakeup. If a token is already pending the call is a no-op,
// giving the coalescing behaviour of a binary semaphore.
func (s *Sem) Signal() {
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// Wait blocks until a signal is (or was) posted, consuming the token.
func (s *Sem) Wait() {
	<-s.ch
}

// TryDrain consumes a pending token without blocking and reports whether
// one was present. The Deschedule protocol uses it to discard a stale token
// when a waiter decides not to sleep after all, and — at the start of every
// sleep cycle — to keep tokens from one cycle from leaking into the next.
func (s *Sem) TryDrain() bool {
	select {
	case <-s.ch:
		return true
	default:
		return false
	}
}

// Batch accumulates semaphores to be signalled together, after the caller
// has released whatever locks it scanned under — the per-commit form of the
// paper's deferred semaphore operations (Algorithm 4 line 9). A committing
// writer CAS-claims every waiter it should wake into a Batch while walking
// its shards, then issues every signal in one burst with SignalAll.
//
// The first batchInline semaphores live in the Batch itself, so a batch
// declared on the stack that wakes that many allocates nothing; more spill
// into a slice. The zero value is an empty batch ready for use. A Batch is
// not safe for concurrent use; each committing thread builds its own.
type Batch struct {
	n      int
	inline [batchInline]*Sem
	spill  []*Sem
}

// batchInline is the number of semaphores a Batch holds without allocating.
const batchInline = 8

// Add appends a semaphore to the batch. The caller must already hold the
// exclusive claim on the corresponding waiter (the asleep/woken CAS), so
// the same waiter can never be added twice for one sleep cycle.
func (b *Batch) Add(s *Sem) {
	if b.n < batchInline {
		b.inline[b.n] = s
	} else {
		b.spill = append(b.spill, s)
	}
	b.n++
}

// Len reports the number of pending signals.
func (b *Batch) Len() int { return b.n }

// SignalAll delivers every pending signal, empties the batch (retaining
// the spill's capacity for reuse), and returns the number of signals
// issued.
func (b *Batch) SignalAll() int {
	n := b.n
	for i := range min(n, batchInline) {
		b.inline[i].Signal()
		b.inline[i] = nil
	}
	for i, s := range b.spill {
		s.Signal()
		b.spill[i] = nil
	}
	b.spill = b.spill[:0]
	b.n = 0
	return n
}
