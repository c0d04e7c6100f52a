// Fixture for the lockorder analyzer: direct locking of registry-shaped
// shards (a mu beside a waiters slice) is restricted to
// //tm:lockorder-checked helpers.
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
func vetted(r *registry) {
	for i := range r.buckets { // fine: a checked helper may lock shards directly
		r.buckets[i].mu.Lock()
	}
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
