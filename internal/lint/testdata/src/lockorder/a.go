// Fixture for the lockorder analyzer: direct locking of registry-shaped
// shards (a mu beside a waiters slice) is restricted to
// //tm:lockorder-checked helpers, which must acquire ascending.
package lockorder

import "sync"

type shard struct {
	mu      sync.Mutex
	waiters []int
}

type bucket struct {
	mu      sync.Mutex
	waiters []int
}

type registry struct {
	shards  []shard
	buckets []bucket
}

func unvetted(r *registry) {
	r.shards[0].mu.Lock() // want `outside a //tm:lockorder-checked helper`
	r.shards[0].mu.Unlock()
}

//tm:lockorder-checked
func descendingAcquire(r *registry) {
	for i := len(r.shards) - 1; i >= 0; i-- {
		r.shards[i].mu.Lock() // want `inside a descending index loop`
	}
	for i := range r.shards {
		r.shards[i].mu.Unlock()
	}
}

//tm:lockorder-checked
func vettedTotalOrder(r *registry) {
	for i := range r.buckets {
		r.buckets[i].mu.Lock()
	}
	// Release order is irrelevant; descending unlocks are fine.
	for i := len(r.buckets) - 1; i >= 0; i-- {
		r.buckets[i].mu.Unlock()
	}
}

type plainMutexHolder struct {
	mu sync.Mutex
	n  int
}

func notRegistryShaped(p *plainMutexHolder) {
	p.mu.Lock() // fine: no waiters slice, not a registry shard
	p.n++
	p.mu.Unlock()
}
