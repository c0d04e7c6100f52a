// Package clock provides the logical commit clock used by the STM
// engines, in the style of TL2 and TinySTM: a monotonically increasing
// counter that orders writer commits and stamps orec versions.
//
// The clock is pluggable. Three protocols from the TL2/TinySTM lineage
// are provided, selected by Mode; all three expose the same Source
// interface and are observably equivalent at the transaction level (the
// differential harness proves this), differing only in how much traffic
// they put on the shared clock word:
//
//   - Global: the classic protocol. Every writer commit (and every
//     abort that republishes lock versions) atomically increments one
//     shared word. Timestamps are unique, so a committer whose
//     increment yields exactly start+1 knows nobody committed since its
//     snapshot and may skip read-set validation. The single cache line
//     is a scalability ceiling at high core counts.
//
//   - POF (GV4-style pass-on-failure): commit attempts one CAS to
//     advance the clock; on failure it adopts the winning committer's
//     value instead of retrying, eliminating the CAS-retry storm. Two
//     writers may then share a timestamp. That is serializable: a
//     conflicting pair can never share a stamp (their write-lock sets
//     would have collided first), and an adopter's snapshot predates
//     the shared stamp so it can never have read the winner's writes.
//     Adopters must always validate; only a committer whose own CAS
//     uniquely moved start to start+1 may skip validation.
//
//   - Deferred (GV5/TicToc-flavored): commit returns one past
//     max(Now(), held) — held being the highest version among the
//     orecs the committer locked — without touching the shared word
//     at all, so unrelated writers share stamps and the clock advances
//     only when a reader actually observes a too-new version
//     (NoteStale). This trades rare extra false aborts — a reader that
//     trips over a freshly published version must retry — for near-zero
//     clock traffic.
//     Commit can never skip validation.
//
// Invariants across all modes:
//
//   - Per-orec versions strictly increase across lock cycles. Global
//     and POF stamps strictly exceed the clock value sampled during
//     Commit, which already covers every version the committer locked;
//     Deferred gets the same guarantee from the held argument. Abort
//     republishes at the locked version + 1. The engines' reads rely on
//     this: an orec word unchanged across the load of the location it
//     covers proves no commit or rollback intervened.
//
//   - A version v becomes readable without abort once Now() >= v.
//     Under Global and POF every version is covered by the clock when
//     it is published (commit stamps by construction; abort
//     republishes only after Bump has advanced the clock past them).
//     Under Deferred published versions may run ahead of the clock —
//     commit stamps chain off held versions and abort republish never
//     bumps — and NoteStale is what moves Now() up to any version a
//     reader trips over, guaranteeing progress.
package clock

import (
	"fmt"
	"sync/atomic"
)

// Mode names a commit-timestamp protocol.
type Mode string

const (
	// Global is the default TL2/TinySTM protocol: one atomic increment
	// of the shared clock word per writer commit. Unique timestamps.
	Global Mode = "global"
	// POF is GV4-style pass-on-CAS-failure: a failed increment adopts
	// the winner's timestamp instead of retrying.
	POF Mode = "pof"
	// Deferred is GV5/TicToc-flavored: commits publish at Now()+1
	// without advancing the shared word; the clock moves only on
	// too-new observations.
	Deferred Mode = "deferred"
)

// Modes lists every mode, default first.
func Modes() []Mode { return []Mode{Global, POF, Deferred} }

// ParseMode validates a mode name. The empty string means Global.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "":
		return Global, nil
	case Global, POF, Deferred:
		return Mode(s), nil
	}
	return "", fmt.Errorf("unknown clock mode %q (want global, pof, or deferred)", s)
}

// Source is a logical commit-timestamp source. Implementations are
// safe for concurrent use; the zero time is 0.
type Source interface {
	// Now returns the current logical time. Transactions snapshot it
	// at begin.
	Now() uint64

	// Commit returns the timestamp a writer that began at start must
	// publish its orec versions at. held is the highest version among
	// the orecs the writer locked (tm.Tx.MaxLockVer; 0 when untracked):
	// end always strictly exceeds it, keeping per-orec versions
	// strictly increasing even when the shared word has not moved since
	// the previous commit to the same orec (Deferred). exclusive
	// reports that no other writer can have taken a timestamp in
	// (start, end], which licenses the TL2 fast path of skipping
	// read-set validation. Under POF and Deferred, end may be shared
	// with concurrent committers; callers must tolerate that (the
	// engines' "Version(w) > tx.Start" comparisons already do).
	Commit(start, held uint64) (end uint64, exclusive bool)

	// Bump advances time past versions republished outside a normal
	// commit: rollback's version+1 lock release and the HTM serial
	// fallback's unversioned stores. The engines call it BEFORE
	// releasing rollback locks, so under Global and POF a republished
	// version is covered by the clock by the time it becomes visible —
	// a concurrent committer can then never reuse it. Under Deferred it
	// is a no-op: republished versions may run ahead of the clock there
	// (NoteStale provides reader progress), and reuse is ruled out by
	// Commit's held argument instead.
	Bump()

	// NoteStale records that a transaction observed orec version v
	// ahead of its snapshot. Global and POF ignore it (their clock
	// already reached v when v was published); Deferred advances the
	// clock to at least v so the retry sees a fresh enough snapshot.
	// Without this the deferred clock would never move and too-new
	// aborts would loop forever.
	NoteStale(v uint64)

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
// them to its Stats. Unknown modes panic — validate user input with
// ParseMode first.
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
// share with it — every writer commit of every thread lands on this line,
// and the whole point of the POF/Deferred modes is to keep it quiet.
// A Source is a small heap object, which Go aligns to 16 bytes, not 64:
// the line now falls on can start up to 48 bytes before it, so only
// padding on both sides keeps that line inside this struct wherever the
// allocator puts it.
//
//tm:padded
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

func (g *global) Bump() { g.w.now.Add(1) }

func (g *global) NoteStale(uint64) {}
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

func (p *pof) NoteStale(uint64) {}
func (p *pof) AtLeast(t uint64) { atLeast(&p.w, &p.c, t) }
func (p *pof) Advances() uint64 { return p.c.advances.Load() }

// deferred is GV5/TicToc-flavored: commit never touches the shared
// word; readers that trip over fresh versions advance it via NoteStale.
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

// Bump is a no-op: deferred published versions may legitimately run
// ahead of the clock (Commit chains off held versions; rollback
// republishes at Version+1, which can exceed Now()+1 when the locked
// orec was already one past the clock). Readers that trip over such a
// version advance the clock themselves via NoteStale, and version
// reuse is ruled out by Commit's held argument, so rollback has
// nothing to cover here.
func (d *deferred) Bump() {}

func (d *deferred) NoteStale(v uint64) { atLeast(&d.w, &d.c, v) }
func (d *deferred) AtLeast(t uint64)   { atLeast(&d.w, &d.c, t) }
func (d *deferred) Advances() uint64   { return d.c.advances.Load() }
