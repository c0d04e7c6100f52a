// Package clock provides the logical commit clock used by the STM
// engines, in the style of TL2 and TinySTM: a monotonically increasing
// counter that orders writer commits and stamps orec versions.
//
// Every System runs Global, the classic protocol: each writer commit (and
// each abort that republishes lock versions) atomically increments one
// shared word. Timestamps are unique, so a committer whose increment
// yields exactly start+1 knows nobody committed since its snapshot and may
// skip read-set validation. The single cache line is a scalability ceiling
// at high core counts.
//
// Two GV4/GV5-style alternatives are kept as cost references for that
// line — the benchmark times one Commit under each Mode — and no System
// can select them:
//
//   - POF (pass-on-failure): commit attempts one CAS to advance the clock;
//     on failure it adopts the winning committer's value instead of
//     retrying. Two writers may then share a timestamp, so only a
//     committer whose own CAS uniquely moved start to start+1 may skip
//     validation.
//
//   - Deferred: commit returns one past max(Now(), held) — held being the
//     highest version among the orecs the committer locked — without
//     touching the shared word, which then moves only through AtLeast.
//     A runtime on it would have to pass held on every commit and raise
//     the clock to every too-new version a reader meets; the tm runtime
//     does neither.
//
// The invariants the runtime relies on, which Global provides:
//
//   - Per-orec versions strictly increase across lock cycles. A commit
//     stamp strictly exceeds the clock value sampled during Commit, which
//     already covers every published version, the committer's locked ones
//     included; abort republishes at the locked version + 1 after Bump.
//     The engines' reads rely on this: an orec word unchanged across the
//     load of the location it covers proves no commit or rollback
//     intervened.
//
//   - A version v becomes readable without abort once Now() >= v, and
//     every version is covered by the clock when it is published: commit
//     stamps by construction, abort republishes because Bump has advanced
//     the clock past them first.
package clock

import "sync/atomic"

// Mode names a commit-timestamp protocol.
type Mode string

const (
	// Global is the TL2/TinySTM protocol every System runs: one atomic
	// increment of the shared clock word per writer commit. Unique
	// timestamps.
	Global Mode = "global"
	// POF is GV4-style pass-on-CAS-failure: a failed increment adopts
	// the winner's timestamp instead of retrying.
	POF Mode = "pof"
	// Deferred is GV5/TicToc-flavored: commits publish at Now()+1
	// without advancing the shared word.
	Deferred Mode = "deferred"
)

// Modes lists every mode, the runtime's first.
func Modes() []Mode { return []Mode{Global, POF, Deferred} }

// Source is a logical commit-timestamp source. Implementations are
// safe for concurrent use; the zero time is 0.
type Source interface {
	// Now returns the current logical time. Transactions snapshot it
	// at begin.
	Now() uint64

	// Commit returns the timestamp a writer that began at start must
	// publish its orec versions at. held is the highest version among
	// the orecs the writer locked; only Deferred reads it, so that end
	// strictly exceeds it although the shared word has not moved since
	// the previous commit to the same orec. Global and POF ignore it,
	// and the runtime passes 0. exclusive reports that no other writer
	// can have taken a timestamp in (start, end], which licenses the TL2
	// fast path of skipping read-set validation. Under POF and Deferred,
	// end may be shared with concurrent committers.
	Commit(start, held uint64) (end uint64, exclusive bool)

	// Bump advances time past versions republished outside a normal
	// commit: rollback's version+1 lock release and the HTM serial
	// fallback's unversioned stores. The engines call it BEFORE
	// releasing rollback locks, so a republished version is covered by
	// the clock by the time it becomes visible — a concurrent committer
	// can then never reuse it. Under Deferred it is a no-op.
	Bump()

	// AtLeast advances the clock to at least t.
	AtLeast(t uint64)

	// Advances returns how many times the shared word has advanced.
	Advances() uint64

	// Mode identifies the protocol.
	Mode() Mode
}

// New builds a Source for mode. casRetries counts failed CASes on the
// shared word (POF adoptions, AtLeast collisions); advances counts
// successful advances of it under POF and Deferred. Global's Commit and
// Bump leave both alone: its word moves one step per advance, so Advances
// reads the count off the word and a writer commit touches no second
// shared line. Either may be nil to discard the count; tm.System wires
// them to its Stats. Unknown modes panic.
func New(mode Mode, casRetries, advances *atomic.Uint64) Source {
	c := counters{retries: casRetries, advances: advances}
	if c.retries == nil {
		c.retries = &atomic.Uint64{}
	}
	if c.advances == nil {
		c.advances = &atomic.Uint64{}
	}
	switch mode {
	case "", Global:
		return &global{c: c}
	case POF:
		return &pof{c: c}
	case Deferred:
		return &deferred{c: c}
	}
	panic("clock: unknown mode " + string(mode))
}

// counters aggregates shared-word traffic into the owning System's
// stats. Both pointers are always non-nil after New.
type counters struct {
	retries  *atomic.Uint64 // failed CASes on the shared word
	advances *atomic.Uint64 // successful advances of the shared word
}

// word isolates the hot shared clock word on its own cache line so the
// counters (and anything the runtime allocates adjacently) never false-
// share with it — every writer commit of every thread lands on this line.
// A Source is a small heap object, which Go aligns to 16 bytes, not 64:
// the line now falls on can start up to 48 bytes before it, so only
// padding on both sides keeps that line inside this struct wherever the
// allocator puts it (TestWordLineIsolated pins it).
type word struct {
	_   [64]byte
	now atomic.Uint64
	_   [56]byte
}

// atLeast CAS-advances w to at least t, feeding the traffic counters.
// It reports whether this call moved the clock.
func atLeast(w *word, c *counters, t uint64) bool {
	for {
		cur := w.now.Load()
		if cur >= t {
			return false
		}
		if w.now.CompareAndSwap(cur, t) {
			c.advances.Add(1)
			return true
		}
		c.retries.Add(1)
	}
}

// global is the classic TL2 clock: Commit = fetch-and-add.
type global struct {
	w word
	c counters
}

func (g *global) Mode() Mode  { return Global }
func (g *global) Now() uint64 { return g.w.now.Load() }

// Commit ignores held: the fetch-and-add yields a value strictly above
// the pre-add clock, which covers every published version — including
// the ones this committer locked (rollback Bumps before republishing,
// so even abort-released versions never run ahead of the clock).
func (g *global) Commit(start, _ uint64) (uint64, bool) {
	end := g.w.now.Add(1)
	// Timestamps are unique, so end == start+1 proves no other writer
	// committed since this transaction's snapshot.
	return end, end == start+1
}

func (g *global) Bump()            { g.w.now.Add(1) }
func (g *global) AtLeast(t uint64) { atLeast(&g.w, &g.c, t) }

// Advances is the word's value: Commit and Bump move it one step each, so
// no second counter is kept (an AtLeast jump counts as its distance).
func (g *global) Advances() uint64 { return g.w.now.Load() }

// pof is GV4: one CAS attempt; losers adopt the winner's timestamp.
type pof struct {
	w word
	c counters
}

func (p *pof) Mode() Mode  { return POF }
func (p *pof) Now() uint64 { return p.w.now.Load() }

// Commit ignores held for the same reason Global does: both return
// paths yield a value strictly above the clock sampled here, and the
// clock already covers every version this committer locked (commit
// stamps by construction; rollback republishes only after Bump).
func (p *pof) Commit(start, _ uint64) (uint64, bool) {
	cur := p.w.now.Load()
	if p.w.now.CompareAndSwap(cur, cur+1) {
		p.c.advances.Add(1)
		// Exclusivity needs more than end == start+1 here: it needs
		// this CAS to be the unique advance from start to start+1.
		// Adoption can only follow some writer's successful CAS, so a
		// clock that never left start also had no adopters in the
		// window, and skipping validation is as sound as under Global.
		return cur + 1, cur == start
	}
	// Pass on failure: somebody else just advanced the clock — share
	// their timestamp instead of fighting for the cache line. The
	// adopted value is at least cur+1 >= start+1 (the clock is
	// monotonic and start <= cur), and never exclusive: a concurrent
	// committer self-evidently exists.
	p.c.retries.Add(1)
	return p.w.now.Load(), false
}

func (p *pof) Bump() {
	// Aborts republish versions at Version+1; the clock must cover
	// them. A lost CAS means a concurrent advance already did.
	cur := p.w.now.Load()
	if p.w.now.CompareAndSwap(cur, cur+1) {
		p.c.advances.Add(1)
	} else {
		p.c.retries.Add(1)
	}
}

func (p *pof) AtLeast(t uint64) { atLeast(&p.w, &p.c, t) }
func (p *pof) Advances() uint64 { return p.c.advances.Load() }

// deferred is GV5/TicToc-flavored: commit never touches the shared word.
type deferred struct {
	w word
	c counters
}

func (d *deferred) Mode() Mode  { return Deferred }
func (d *deferred) Now() uint64 { return d.w.now.Load() }

func (d *deferred) Commit(start, held uint64) (uint64, bool) {
	// Publish one past the current time — or one past the highest
	// version this committer locked, whichever is later. Without held,
	// two back-to-back commits to the same orec could reuse a stamp
	// (the shared word never moves on commit), and a reader whose sample
	// straddles the second commit could mistake its republished word for
	// an unchanged one. Chaining off held keeps per-orec versions
	// strictly increasing with zero shared-word traffic. end == start+1
	// proves nothing here (nobody advances the clock on commit), so this
	// mode never grants the fast path.
	end := d.w.now.Load() + 1
	if held >= end {
		end = held + 1
	}
	return end, false
}

// Bump is a no-op: deferred published versions may run ahead of the
// clock, and version reuse is ruled out by Commit's held argument.
func (d *deferred) Bump() {}

func (d *deferred) AtLeast(t uint64) { atLeast(&d.w, &d.c, t) }
func (d *deferred) Advances() uint64 { return d.c.advances.Load() }
