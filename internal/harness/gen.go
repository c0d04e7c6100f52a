package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"tmsync/internal/mech"
	"tmsync/internal/tm"
)

// GenConfig bounds the randomized scenario generator. Zero values pick
// seed-derived defaults. The filler's shape — uniform or Zipf-skewed key
// selection, and a schedule of one to three op mixes — is always drawn
// from the seed, so every run of the generator covers every shape.
type GenConfig struct {
	// Threads fixes the worker count (default: seed-derived, 2–4).
	Threads int
	// Ops is the approximate number of operations per thread (default:
	// seed-derived, 8–24).
	Ops int
	// InjectFault deliberately drops one committed operation from the
	// executed program while leaving the oracle intact, so the harness's
	// detection path itself can be exercised end to end.
	InjectFault bool
}

// mix names the distribution one phase of a thread's filler draws from.
type mix uint8

const (
	mixMixed     mix = iota // counter adds, transfers and map churn, 2:1:1
	mixCounters             // commutative adds only
	mixTransfers            // sum-conserving moves
	mixScans                // wide read-scan transactions, one add in four
	mixMap                  // thread-partitioned map churn, one add in four
	numMixes
)

// shape is the filler's seed-drawn shape.
type shape struct {
	// zipf selects counter indices and map-key ranks Zipf-skewed, so a
	// few hot keys absorb most of the traffic, instead of uniformly.
	zipf bool
	// phases lists the mixes each thread's filler runs through, in order,
	// so the op mix shifts mid-scenario when there is more than one.
	phases []mix
}

func drawShape(r *prng) shape {
	sh := shape{zipf: r.intn(2) == 0}
	for n := 1 + r.intn(3); n > 0; n-- {
		sh.phases = append(sh.phases, mix(r.intn(int(numMixes))))
	}
	return sh
}

// zipf holds the cumulative weights of a Zipf distribution with exponent
// 1 over len(z) ranks: rank i has weight 1/(i+1). Each weight is one
// exactly-rounded IEEE division, summed in a fixed order, so a seed draws
// the same ranks on every platform. A nil zipf draws uniformly.
type zipf []float64

func newZipf(n int) zipf {
	z := make(zipf, n)
	total := 0.0
	for i := range z {
		total += 1 / float64(i+1)
		z[i] = total
	}
	return z
}

// draw returns a rank in [0, n): Zipf-skewed from z, whose length is n,
// or uniformly when z is nil.
func (z zipf) draw(r *prng, n int) int {
	if z == nil {
		return r.intn(n)
	}
	// 53 uniform bits, scaled into [0, total); ranks are few (counters
	// and per-thread key ranks), so a linear scan beats a binary search.
	u := float64(r.next()>>11) / (1 << 53) * z[len(z)-1]
	for i, c := range z {
		if u < c {
			return i
		}
	}
	return len(z) - 1
}

// prng is splitmix64 — deterministic, seedable, and stable across Go
// releases (math/rand's stream is not guaranteed), so a seed printed by a
// failing run replays forever.
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate derives a complete scenario — world geometry, one program per
// thread, oracle — from one seed. Programs are constructed so that every
// interleaving terminates (see the deadlock-freedom notes inline) and the
// oracle facts are interleaving-independent, which is exactly what makes
// them comparable across engines and mechanisms.
func Generate(seed uint64, cfg GenConfig) *Scenario {
	r := &prng{s: seed}
	sp := &spec{}
	sp.threads = cfg.Threads
	if sp.threads == 0 {
		sp.threads = 2 + r.intn(3)
	}
	ops := cfg.Ops
	if ops == 0 {
		ops = 8 + r.intn(17)
	}
	sp.counters = 2 + r.intn(4)

	// Choose the blocking structures. At least one is always present so
	// every scenario exercises condition synchronization.
	kinds := []opKind{opBufPut, opQueuePut, opStackPush}
	for i := len(kinds) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	kinds = kinds[:1+r.intn(3)]
	if contains(kinds, opBufPut) {
		sp.bufCap = 1 + r.intn(6)
	}
	sp.hasQueue = contains(kinds, opQueuePut)
	sp.hasStack = contains(kinds, opStackPush)
	sp.hasMap = r.intn(2) == 0

	// Each thread is producer or consumer for exactly ONE blocking
	// structure (plus non-blocking filler anywhere). Structures therefore
	// form independent producer/consumer systems, which — with matched
	// totals and leftovers bounded by capacity — cannot deadlock; mixing
	// roles across structures in one thread could (A waits on what B
	// produces only after B waits on what A produces later).
	partitions := make([][]int, len(kinds))
	for t := 0; t < sp.threads; t++ {
		g := t % len(kinds)
		partitions[g] = append(partitions[g], t)
	}

	sp.programs = make([][]op, sp.threads)
	role := make([][]op, sp.threads) // ordered blocking-structure ops per thread

	for g, members := range partitions {
		kind := kinds[g]
		if len(members) == 0 {
			continue
		}
		if len(members) == 1 {
			// A lone thread alternates put/get so its balance stays within
			// any capacity; an optional trailing put leaves one element
			// behind to diversify final lengths.
			t := members[0]
			pairs := max(1, ops/4)
			seq := uint64(0)
			for i := 0; i < pairs; i++ {
				seq++
				role[t] = append(role[t], op{kind: kind, a: encodeVal(t, seq)}, op{kind: takeKind(kind)})
			}
			if r.intn(2) == 0 {
				seq++
				role[t] = append(role[t], op{kind: kind, a: encodeVal(t, seq)})
			}
			continue
		}
		nprod := 1 + r.intn(len(members)-1)
		producers, consumers := members[:nprod], members[nprod:]
		total := 0
		for _, t := range producers {
			items := 1 + r.intn(max(1, ops/2))
			for s := 1; s <= items; s++ {
				role[t] = append(role[t], op{kind: kind, a: encodeVal(t, uint64(s))})
			}
			total += items
		}
		// Leftover elements stay in the structure at the end; for the
		// bounded buffer they must fit, or the last producers would block
		// forever with no consumer left to drain.
		maxLeft := total
		if kind == opBufPut && sp.bufCap < maxLeft {
			maxLeft = sp.bufCap
		}
		if maxLeft > 3 {
			maxLeft = 3
		}
		left := r.intn(maxLeft + 1)
		gets := total - left
		for i, t := range consumers {
			n := gets / len(consumers)
			if i == 0 {
				n += gets % len(consumers)
			}
			for j := 0; j < n; j++ {
				role[t] = append(role[t], op{kind: takeKind(kind)})
			}
		}
	}

	// Filler: commutative counter arithmetic, sum-conserving transfers,
	// read-heavy scans and thread-partitioned map ops, interleaved
	// deterministically with the role ops. Its shape is drawn after the
	// geometry and the role ops, which therefore do not depend on it.
	if sp.hasMap {
		sp.mapKeys = sp.threads * keysPerThread
	}
	sp.shape = drawShape(r)
	var zc, zk zipf
	if sp.shape.zipf {
		zc, zk = newZipf(sp.counters), newZipf(keysPerThread)
	}
	for t := 0; t < sp.threads; t++ {
		sp.programs[t] = weave(r, role[t], filler(r, sp, t, ops, zc, zk))
	}

	// Size the arenas so allocation pressure never blocks a producer
	// (memory-pressure waits are tested separately in internal/txds; here
	// they would entangle the per-structure deadlock-freedom argument).
	sp.queueCap = len(producedValues(sp, opQueuePut)) + sp.threads + 1
	sp.stackCap = len(producedValues(sp, opStackPush)) + sp.threads + 1
	sp.mapCap = sp.mapKeys + sp.threads + 2

	oracleObs := oracle(sp)

	runSp := sp
	if cfg.InjectFault {
		runSp = injectFault(sp)
	}

	var replay []string
	if cfg.Threads != 0 {
		replay = append(replay, fmt.Sprintf("-threads %d", cfg.Threads))
	}
	if cfg.Ops != 0 {
		replay = append(replay, fmt.Sprintf("-ops %d", cfg.Ops))
	}

	return &Scenario{
		Name:       fmt.Sprintf("gen-%d", seed),
		Seed:       seed,
		Injected:   cfg.InjectFault,
		ReplayArgs: strings.Join(replay, " "),
		Digest:     runSp.digest(),
		Threads:    sp.threads,
		Oracle:     func() Observation { return oracleObs },
		Run: func(sys *tm.System, m mech.Mechanism) (Observation, error) {
			return runSpec(runSp, sys, m)
		},
		sp: runSp,
	}
}

// digest fingerprints the spec: FNV-1a over the world geometry and every
// program op, in a fixed field order. Stable across Go releases (no map
// iteration, no math/rand), so golden digests pin generator behaviour.
func (sp *spec) digest() string {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	word(uint64(sp.threads))
	word(uint64(sp.counters))
	word(uint64(sp.bufCap))
	word(b2u(sp.hasQueue))
	word(b2u(sp.hasStack))
	word(b2u(sp.hasMap))
	word(uint64(sp.mapKeys))
	word(uint64(sp.queueCap))
	word(uint64(sp.stackCap))
	word(uint64(sp.mapCap))
	for _, prog := range sp.programs {
		word(uint64(len(prog)))
		for _, o := range prog {
			word(uint64(o.kind))
			word(o.a)
			word(o.b)
			word(o.c)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// injectFault returns a copy of sp with the last counter-add of thread 0
// dropped: the executed program then commits less than the oracle
// expects, which a correct harness must flag on every engine × mechanism.
func injectFault(sp *spec) *spec {
	cp := *sp
	cp.programs = make([][]op, len(sp.programs))
	for i := range sp.programs {
		cp.programs[i] = append([]op(nil), sp.programs[i]...)
	}
	for t := range cp.programs {
		for i := len(cp.programs[t]) - 1; i >= 0; i-- {
			if cp.programs[t][i].kind == opCounterAdd {
				cp.programs[t] = append(cp.programs[t][:i], cp.programs[t][i+1:]...)
				return &cp
			}
		}
	}
	return &cp
}

// keysPerThread is how many map keys each thread owns.
const keysPerThread = 3

// filler draws thread t's non-blocking ops: one leading counter-add (the
// target injectFault drops, so every thread has one), then each phase of
// sp.shape in order, 1 to ops/(2·phases) ops from its mix. zc and zk pick
// counter indices and map-key ranks.
func filler(r *prng, sp *spec, t, ops int, zc, zk zipf) []op {
	out := []op{{kind: opCounterAdd, a: uint64(zc.draw(r, sp.counters)), b: uint64(1 + r.intn(8))}}
	phases := sp.shape.phases
	for _, m := range phases {
		for n := 1 + r.intn(max(1, ops/(2*len(phases)))); n > 0; n-- {
			out = append(out, mixOp(r, sp, m, t, zc, zk))
		}
	}
	return out
}

// mixOp draws one filler op from mix m. Every mix keeps the oracle
// interleaving-independent: counter effects are commutative adds,
// transfers conserve the sum, map keys stay thread-partitioned, and the
// read-heavy transaction's reads feed nothing.
func mixOp(r *prng, sp *spec, m mix, t int, zc, zk zipf) op {
	counter := func() uint64 { return uint64(zc.draw(r, sp.counters)) }
	counterAdd := func() op {
		return op{kind: opCounterAdd, a: counter(), b: uint64(1 + r.intn(8))}
	}
	transfer := func() op {
		from := int(counter())
		to := (from + 1 + r.intn(sp.counters-1)) % sp.counters
		return op{kind: opTransfer, a: uint64(from), b: uint64(to), c: uint64(1 + r.intn(4))}
	}
	mapOp := func() op {
		if !sp.hasMap {
			return counterAdd()
		}
		key := uint64(t*keysPerThread + zk.draw(r, keysPerThread) + 1)
		if r.intn(3) == 0 {
			return op{kind: opMapDel, a: key}
		}
		return op{kind: opMapPut, a: key, b: r.next() % 1000}
	}
	switch m {
	case mixCounters:
		return counterAdd()
	case mixTransfers:
		return transfer()
	case mixScans:
		if r.intn(4) == 3 {
			return counterAdd()
		}
		return op{kind: opReadHeavy, a: counter(), b: uint64(1 + r.intn(4)), c: uint64(2 + r.intn(6))}
	case mixMap:
		if r.intn(4) == 3 {
			return counterAdd()
		}
		return mapOp()
	}
	switch r.intn(4) { // mixMixed
	case 0, 1:
		return counterAdd()
	case 2:
		return transfer()
	}
	return mapOp()
}

func takeKind(put opKind) opKind {
	switch put {
	case opBufPut:
		return opBufGet
	case opQueuePut:
		return opQueueTake
	case opStackPush:
		return opStackPop
	}
	panic("harness: not a producer op")
}

func contains(ks []opKind, k opKind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// weave merges two op lists into one program, preserving each list's
// internal order, with a deterministic seed-derived interleaving.
func weave(r *prng, a, b []op) []op {
	out := make([]op, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && r.intn(len(a)+len(b)) < len(a)) {
			out = append(out, a[0])
			a = a[1:]
		} else {
			out = append(out, b[0])
			b = b[1:]
		}
	}
	return out
}
