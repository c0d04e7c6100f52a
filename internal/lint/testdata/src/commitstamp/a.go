// Fixture for the commitstamp analyzer: in functions that take a commit
// timestamp, every orec publish must be dominated by the Clock.Commit
// call and must carry a version derived from its result — not from an
// earlier Clock.Now sample, and not from an unrelated value.
package commitstamp

//tm:orec-table
type table struct{ words [8]uint64 }

func (t *table) Get(i int) uint64    { return t.words[i] }
func (t *table) Set(i int, w uint64) { t.words[i] = w }

//tm:clock-source
type clock struct{ t uint64 }

func (c *clock) Now() uint64 { return c.t }

func (c *clock) Commit(start, maxLock uint64) uint64 {
	if maxLock > c.t {
		c.t = maxLock
	}
	c.t++
	return c.t
}

type tx struct {
	Start      uint64
	MaxLockVer uint64
	Locks      []int
}

// commitGood publishes the commit timestamp itself.
func commitGood(x *tx, t *table, c *clock) {
	end := c.Commit(x.Start, x.MaxLockVer)
	for _, i := range x.Locks {
		t.Set(i, end<<1)
	}
	x.Locks = x.Locks[:0]
}

// commitDerived publishes a value computed from the timestamp through a
// local assignment chain; derivation must propagate.
func commitDerived(x *tx, t *table, c *clock) {
	end := c.Commit(x.Start, x.MaxLockVer)
	word := end << 1
	release := word
	for _, i := range x.Locks {
		t.Set(i, release)
	}
}

// publishEarly stores before the timestamp exists — the publish is not
// dominated by the Clock.Commit call.
func publishEarly(x *tx, t *table, c *clock) {
	for _, i := range x.Locks {
		t.Set(i, x.Start<<1) // want `orec publish precedes the Clock\.Commit stamp`
	}
	_ = c.Commit(x.Start, x.MaxLockVer)
}

// publishNowSample is the stale-clock bug shape: the published version
// comes from a Now sample taken before Commit advanced the clock, so it
// can sit at or below a concurrently-published version.
func publishNowSample(x *tx, t *table, c *clock) {
	now := c.Now()
	_ = c.Commit(x.Start, x.MaxLockVer)
	for _, i := range x.Locks {
		t.Set(i, now<<1) // want `orec publish uses a version derived from a stale Clock\.Now sample`
	}
}

// publishUnrelated derives the version from the start time instead of
// the commit timestamp.
func publishUnrelated(x *tx, t *table, c *clock) {
	_ = c.Commit(x.Start, x.MaxLockVer)
	for _, i := range x.Locks {
		t.Set(i, x.Start<<1) // want `orec publish does not derive from the Clock\.Commit timestamp`
	}
}

// rollbackRepublish has no Commit call: rollback-style republishes of
// bumped old versions are bumporder's responsibility, not commitstamp's.
func rollbackRepublish(x *tx, t *table) {
	for _, i := range x.Locks {
		t.Set(i, t.Get(i)+2)
	}
	x.Locks = x.Locks[:0]
}

// stamp carries a commit timestamp from the function that took it to the
// function that publishes it.
//
//tm:commit-stamp
type stamp struct{ end uint64 }

// takeStamp builds the stamp from the Clock.Commit result.
func takeStamp(x *tx, c *clock) stamp {
	end := c.Commit(x.Start, x.MaxLockVer)
	return stamp{end}
}

// publishStamp publishes what it was handed.
func publishStamp(x *tx, t *table, s stamp) {
	for _, i := range x.Locks {
		t.Set(i, s.end<<1)
	}
}

// forgeStamp wraps a Now sample in the stamp type: no Clock.Commit result
// reaches the literal.
func forgeStamp(c *clock) stamp {
	return stamp{c.Now()} // want `commit stamp is built from a value that is not the Clock\.Commit timestamp`
}

// publishBesideStamp is handed a stamp and publishes a Now sample anyway.
func publishBesideStamp(x *tx, t *table, c *clock, s stamp) {
	now := c.Now()
	for _, i := range x.Locks {
		t.Set(i, now<<1) // want `orec publish uses a version derived from a stale Clock\.Now sample`
	}
}
