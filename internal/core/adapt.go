// Online stripe resizing: the contention-adaptive controller that picks
// the orec-table stripe count from observed wakeup-scan work, and the
// epoch-swap migration that carries the sharded waiter registries to a
// new stripe geometry while transactions keep running.
//
// A resize is not a stop-the-world: the table's orec words never move
// (storage is chunked at the finest stripe granularity), so only the
// slot→stripe labelling changes. The swap has three parts, in order:
//
//  1. locktable.Table.Resize publishes a new generation-tagged View.
//     Engines stamp each attempt with the View read at Begin and
//     revalidate the generation at commit, so a writer whose stripe set
//     was named under the old geometry aborts and retries on the new one
//     (Stats.GenAborts).
//  2. The migration builds a fresh tier of waiter-index and Retry-Orig
//     registry shards for the new geometry and, holding every shard lock
//     of the old generation, copies each still-sleeping waiter into the
//     shards its waitset (or read set) covers under the new view. The
//     old tier's lists are left intact: a committing writer that loaded
//     the old tier keeps scanning it safely (see wakeWaiters).
//  3. The old shards are marked moved — under their locks — so mutators
//     (insert, remove, validate-and-insert, withdraw) that arrive later
//     reload the current tier and retry. No waiter is ever half-moved,
//     because mutators hold all covering shard locks at once and the
//     migration holds all of them.
package core

import (
	"sync/atomic"

	"tmsync/internal/tm"
)

// controller is the adaptive stripe-sizing policy, sampled on the commit
// path: every adaptWindow writer commits, the committing thread that
// closes the window examines the window's contention signals, summed
// over the per-thread stat shards — WakeChecks and OrigShardChecks (how
// much post-commit scan work writers did), Wakeups (how much of it was
// useful), and the abort rate — and doubles or halves the stripe count within
// [Config.MinStripes, Config.MaxStripes] when the futile-scan load
// crosses the hysteresis thresholds. With Config.ResizeEvery set, the
// thresholds are replaced by a deterministic forced schedule (the
// differential harness's tool for proving resizes observably inert).
type controller struct {
	enabled  bool
	forced   bool
	window   uint64
	min, max int
	schedule []int

	// commits counts postCommit invocations; the thread whose increment
	// crosses a window boundary tries to make the decision.
	commits atomic.Uint64

	// last is the window-start sum of the stat shards; with schedIdx and
	// quiet it is guarded by CondSync.resizeMu (only the decision winner
	// touches them).
	schedIdx int
	quiet    uint64
	last     tm.Counters
}

// quietCommits is how many consecutive below-shrink-threshold commits it
// takes before the controller halves the stripe count. Growing reacts to
// a single bad window (futile scans are pure waste); shrinking waits for
// sustained quiet, so a geometry serving sparse-but-live waiter traffic
// — bursts separated by silent stretches — keeps resetting the counter
// and is never torn down only to be rebuilt on the next burst. Counted
// in commits, not windows, so the hysteresis does not depend on the
// window length.
const quietCommits = 4096

const (
	// adaptWindow is the number of writer commits per controller decision
	// window: small enough that converging from one stripe to sixty-four
	// costs only a few hundred commits of transient.
	adaptWindow = 64
	// adaptGrow is the futile-scan threshold above which the controller
	// doubles the stripe count: futile wakeup-scan visits (wake checks plus
	// Retry-Orig registry checks that woke nobody) per writer commit in the
	// window — one wasted visit per 200 commits.
	adaptGrow = 0.005
	// adaptShrink is the total-scan threshold below which a window counts
	// as quiet. The asymmetry (grow on one bad window, shrink on sustained
	// silence) plus the gap between the thresholds is the hysteresis that
	// prevents oscillation.
	adaptShrink = 0.0005
)

func (c *controller) init(cfg tm.Config) {
	c.window = adaptWindow
	c.min, c.max = cfg.MinStripes, cfg.MaxStripes
	if cfg.ResizeEvery > 0 && len(cfg.ResizeSchedule) > 0 {
		c.forced = true
		c.window = uint64(cfg.ResizeEvery)
		c.schedule = cfg.ResizeSchedule
	}
	c.enabled = c.forced || c.max > c.min
}

// maybeAdapt runs at the tail of every postCommit. It is deliberately
// cheap when no decision is due (one atomic increment), and a decision
// that loses the TryLock race is simply skipped — another window will
// come.
func (cs *CondSync) maybeAdapt() {
	c := &cs.ctl
	if !c.enabled {
		return
	}
	n := c.commits.Add(1)
	if n%c.window != 0 {
		return
	}
	if !cs.resizeMu.TryLock() {
		return
	}
	defer cs.resizeMu.Unlock()

	if c.forced {
		next := c.schedule[c.schedIdx%len(c.schedule)]
		c.schedIdx++
		if next > cs.sys.Table.MaxStripes() {
			next = cs.sys.Table.MaxStripes()
		}
		if next < 1 {
			next = 1
		}
		cs.resizeLocked(next)
		return
	}

	st, last := cs.sys.Stats.Sum(), c.last
	c.last = st
	dChecks := (st.WakeChecks - last.WakeChecks) + (st.OrigShardChecks - last.OrigShardChecks)
	dWakeups := st.Wakeups - last.Wakeups
	dCommits := st.Commits - last.Commits
	dAborts := st.Aborts - last.Aborts
	dAttempts := st.Attempts() - last.Attempts()
	if dCommits == 0 {
		return
	}

	// The grow signal is futile scan work: waiter visits and registry
	// checks that woke nobody, per writer commit. Useful visits (one per
	// delivered wakeup) are free no matter the stripe count — a waiter
	// that must wake must be visited — so they are subtracted out. The
	// shrink signal is total scan work: only a registry that is barely
	// consulted at all is worth folding into fewer stripes.
	futile := float64(dChecks) - float64(dWakeups)
	if futile < 0 {
		futile = 0
	}
	load := futile / float64(dCommits)
	total := float64(dChecks) / float64(dCommits)
	abortRate := 0.0
	if dAttempts > 0 {
		abortRate = float64(dAborts) / float64(dAttempts)
	}

	cur := cs.tier.Load().view.NumStripes()
	switch {
	case load > adaptGrow && cur*2 <= c.max:
		c.quiet = 0
		cs.resizeLocked(cur * 2)
	case total < adaptShrink && abortRate < 0.5:
		// Shrinking is cheap to be wrong about upward (the next window
		// regrows) but the scan stats of an abort-heavy window are too
		// noisy to act on, so high-churn windows keep the current count.
		c.quiet += dCommits
		if c.quiet >= quietCommits && cur/2 >= c.min {
			c.quiet = 0
			cs.resizeLocked(cur / 2)
		}
	default:
		c.quiet = 0
	}
}

// Resize performs an online stripe-geometry swap to the given count
// (a power of two within [1, Table.MaxStripes()]): the table publishes a
// new generation and the waiter registries migrate to it. Safe to call
// while transactions run; concurrent resizes serialize. Exported for
// tests and tools — the adaptive controller calls the same path.
func (cs *CondSync) Resize(stripes int) {
	cs.resizeMu.Lock()
	defer cs.resizeMu.Unlock()
	cs.resizeLocked(stripes)
}

// resizeLocked is the epoch swap proper; the caller holds resizeMu.
//
//tm:lockorder-checked
func (cs *CondSync) resizeLocked(stripes int) {
	old := cs.tier.Load()
	if old.view.NumStripes() == stripes {
		return
	}
	nv := cs.sys.Table.Resize(stripes)
	nt := newTier(nv)

	// Lock every shard of the old generation, ascending, waiter shards
	// before registry shards. Mutators only ever hold an ascending subset
	// within one family, and scanners hold one lock at a time, so the
	// total order (waiter shards, then orig shards, each ascending) rules
	// out deadlock. Holding everything makes the copy atomic: no mutator
	// can add, claim, or withdraw between what we read and what we mark
	// moved.
	for i := range old.shards {
		old.shards[i].mu.Lock()
	}
	for i := range old.origShards {
		old.origShards[i].mu.Lock()
	}

	migrated := 0
	seen := make(map[*Waiter]struct{})
	for i := range old.shards {
		for _, w := range old.shards[i].waiters {
			if _, dup := seen[w]; dup {
				continue
			}
			seen[w] = struct{}{}
			// A claimed (or departing) waiter will never be woken again
			// through the index; its owner's remove on the new tier is a
			// no-op, so dropping it here is the cleanup.
			if !w.asleep.Load() {
				continue
			}
			for _, s := range cs.shardsOf(nv, w.Waitset) {
				sh := &nt.shards[s].waiterShard
				sh.set(append(sh.waiters, w))
			}
			migrated++
		}
	}
	seenOrig := make(map[*origWaiter]struct{})
	for i := range old.origShards {
		for _, ow := range old.origShards[i].waiters {
			if _, dup := seenOrig[ow]; dup {
				continue
			}
			seenOrig[ow] = struct{}{}
			if ow.woken.Load() {
				continue
			}
			for _, s := range nv.StripesOf(ow.slots, nil) {
				sh := &nt.origShards[s].origShard
				sh.set(append(sh.waiters, ow))
			}
			migrated++
		}
	}

	// Publish the new tier BEFORE releasing the old locks: a mutator that
	// finds a moved shard must be able to load a tier that is at least as
	// new as the one that moved it. Its shard lengths were stored above,
	// before this store, so no scanner can load the new tier and read a
	// migrated shard as empty. The old lists and lengths stay intact for
	// scanners that captured the old tier.
	cs.tier.Store(nt)
	for i := range old.shards {
		old.shards[i].moved = true
		old.shards[i].mu.Unlock()
	}
	for i := range old.origShards {
		old.origShards[i].moved = true
		old.origShards[i].mu.Unlock()
	}

	cs.sys.Stats.StripeResizes.Add(1)
	if migrated > 0 {
		cs.sys.Stats.MigratedWaiters.Add(uint64(migrated))
	}
}
