package tm

// The simulated best-effort hardware layer shared by the htm and hybrid
// engines: buffered (invisible) writes, signature-based eager conflict
// aborts, capacity limits, optional spurious aborts, and no escape
// actions. A hardware attempt is a redo-log attempt (orec.go) that can be
// doomed from outside.
//
// Safety does not rest on the signatures: CommitRedo validates the read
// set against orec versions like any software commit, so a signature race
// that misses a doom only shapes abort behaviour, never correctness.

// BeginHW starts a hardware attempt. Hardware attempts must not start
// inside a serial section, and must stand down if one begins while they
// publish their activity — EnterSerial's drain may not have seen them,
// whether it ran before HWActive was set or walked a thread list this
// thread had not yet joined — so HWActive is only left set once
// SerialActive has been re-read clear after it.
func (tx *Tx) BeginHW() {
	t := tx.Thr
	for {
		tx.Sys.awaitSerialClear()
		t.Doomed.Store(false)
		t.SigReset()
		t.HWActive.Store(true)
		if tx.Sys.SerialActive.Load() == 0 {
			break
		}
		t.HWActive.Store(false)
	}
	tx.Mode = ModeHW
	tx.Start = t.PublishStart()
}

// EndHW retires the thread's hardware attempt, if any. Commit calls it on
// success; every abort reaches it through the engine's Rollback, which the
// driver runs on every unwinding path.
func (tx *Tx) EndHW() { tx.Thr.HWActive.Store(false) }

// checkHW aborts if the hardware attempt has been doomed by a conflicting
// committer or draws a simulated spurious abort.
func (tx *Tx) checkHW() {
	if tx.Thr.Doomed.Load() {
		tx.Abort(AbortConflict)
	}
	if p := tx.Sys.Cfg.HTMSpuriousAbortPerMille; p > 0 && tx.Rand()%1000 < uint64(p) {
		tx.Abort(AbortSpurious)
	}
}

// ReadHW is a hardware-mode load: read-after-write comes from the buffer,
// anything else is a committed read that joins the signature and counts
// against the read capacity.
func (tx *Tx) ReadHW(addr *uint64) uint64 {
	tx.checkHW()
	if buf, ok := tx.Redo.Get(addr); ok {
		return buf
	}
	val := tx.ReadCommitted(addr)
	tx.Thr.SigAdd(tx.Sys.Table.IndexOf(addr))
	tx.HWReads++
	if tx.HWReads > tx.Sys.Cfg.HTMReadCap {
		tx.Abort(AbortCapacity)
	}
	return val
}

// WriteHW is a hardware-mode store: buffered, with the covering orec in
// the signature and each distinct word counted against the write capacity.
func (tx *Tx) WriteHW(addr *uint64, val uint64) {
	tx.checkHW()
	idx := tx.Sys.Table.IndexOf(addr)
	tx.Thr.SigAdd(idx)
	if _, dup := tx.Redo.Get(addr); !dup {
		tx.HWWrites++
		if tx.HWWrites > tx.Sys.Cfg.HTMWriteCap {
			tx.Abort(AbortCapacity)
		}
	}
	tx.Redo.Put(addr, val, idx)
}

// CommitHW commits a hardware attempt through the shared orec commit and
// retires it.
func (tx *Tx) CommitHW() {
	tx.checkHW()
	tx.CommitRedo()
	tx.EndHW()
}

// doomHWReaders is eager invalidation: doom every concurrent hardware
// attempt whose signature may overlap the write set just published. This
// is what makes read-only wakeWaiters transactions abort under writer
// pressure (§2.4.1).
//
// The scan walks the thread list in place, after Publish has released the
// commit's orecs. A hardware attempt it misses — one whose signature did
// not hold the orec yet, or on a thread that registers during the walk —
// reads that orec at a version newer than its start and aborts there.
func (tx *Tx) doomHWReaders() {
	for _, o := range tx.Sys.Threads() {
		if o == tx.Thr || !o.HWActive.Load() {
			continue
		}
		for i := range tx.Redo.Entries {
			if o.SigMightContain(tx.Redo.Entries[i].Orec) {
				o.Doomed.Store(true)
				break
			}
		}
	}
}
