package tm

// EnterSerial acquires system-wide exclusivity for thread t: it takes the
// serial lock, announces the serial section, dooms in-flight hardware
// transactions, and waits for every other thread's current attempt to
// drain. Used by the HTM fallback path and by irrevocable transactions.
//
// Each pass walks its own Threads() snapshot, as the htm engine's private
// doom-and-drain did before it became this call: how long a serial section
// takes to establish shapes the buffer workload's abort/serialize regime
// just as doomHWReaders' snapshot does (CHANGES.md, PR 12).
func (s *System) EnterSerial(t *Thread) {
	s.SerialMu.Lock()
	s.SerialActive.Store(1)
	for _, o := range s.Threads() {
		if o != t && o.HWActive.Load() {
			o.Doomed.Store(true)
		}
	}
	for _, o := range s.Threads() {
		if o == t {
			continue
		}
		for {
			if o.HWActive.Load() {
				o.Doomed.Store(true)
			} else if o.ActiveStart.Load() == 0 {
				break
			}
			spinYield()
		}
	}
}

// ExitSerialIfHeld releases the serial section if this attempt owns it.
// Safe to call when it does not (including after an engine already
// released it).
func (s *System) ExitSerialIfHeld(tx *Tx) {
	if !tx.SerialHeld {
		return
	}
	tx.SerialHeld = false
	s.SerialActive.Store(0)
	s.SerialMu.Unlock()
}

// PublishStartSerialAware is PublishStart for software engines that must
// also respect serial sections: the attempt waits out any active serial
// section (unless it owns it) and re-checks after publishing, closing the
// window in which EnterSerial's drain scan could miss it.
func (t *Thread) PublishStartSerialAware(tx *Tx) uint64 {
	for {
		if !tx.SerialHeld {
			for t.Sys.SerialActive.Load() != 0 {
				spinYield()
			}
		}
		start := t.PublishStart()
		if tx.SerialHeld || t.Sys.SerialActive.Load() == 0 {
			return start
		}
		// A serial section began while we published; stand down and wait.
		t.ActiveStart.Store(0)
	}
}
