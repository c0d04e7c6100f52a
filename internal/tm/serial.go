package tm

import "math/bits"

// serialPolls is how many times a thread re-reads the serial word before
// each processor yield while it waits on a serial section: for the section
// to end, for the lock, or for the threads it drains. A serial section is
// a single transaction, usually over in well under these polls' time, and
// it is never held across a sleep (ExitSerialIfHeld runs before every
// Signal handler); yielding at once costs a scheduler round trip per wait
// — 3 µs against 1 µs for the ops of benchmark/'s buffer workload that
// fall back to serial mode under htm. The yield stays because goroutines
// may outnumber processors.
const serialPolls = 256

// serialWait is one step of such a wait; i counts the caller's steps.
func serialWait(i int) {
	if i%serialPolls == serialPolls-1 {
		spinYield()
	}
}

// awaitSerialClear returns once no serial section is active.
func (s *System) awaitSerialClear() {
	for i := 0; s.SerialActive.Load() != 0; i++ {
		serialWait(i)
	}
}

// EnterSerial acquires system-wide exclusivity for thread t: it takes the
// serial word (which also announces the section to every beginning
// attempt), dooms in-flight hardware transactions, and waits for every
// other thread's current attempt to drain. Used by the HTM fallback path
// and by irrevocable transactions.
//
// Both passes walk the live set over the thread list in place. A thread
// that registers after a pass loaded the list, or whose live bit the pass
// loads clear, is not waited for, and need not be: it sets its bit
// (Thread.list) before it publishes an attempt, so a pass that missed the
// bit loaded it before that publication and after SerialActive was set,
// and BeginHW's and PublishStartSerialAware's recheck of SerialActive make
// the attempt stand down.
func (s *System) EnterSerial(t *Thread) {
	for i := 0; !s.SerialActive.CompareAndSwap(0, 1); i++ {
		serialWait(i)
	}
	ts := s.Threads()
	for wi := range (len(ts) + 63) / 64 {
		for m := s.live[wi].Load(); m != 0; m &= m - 1 {
			i := wi*64 + bits.TrailingZeros64(m)
			if i >= len(ts) {
				break
			}
			o := ts[i]
			if o != t && o.HWActive.Load() {
				o.Doomed.Store(true)
			}
		}
	}
	for wi := range (len(ts) + 63) / 64 {
		for m := s.live[wi].Load(); m != 0; m &= m - 1 {
			i := wi*64 + bits.TrailingZeros64(m)
			if i >= len(ts) {
				break
			}
			o := ts[i]
			if o == t {
				continue
			}
			for spin := 0; ; spin++ {
				if o.HWActive.Load() {
					o.Doomed.Store(true)
				} else if o.ActiveStart.Load() == 0 {
					break
				}
				serialWait(spin)
			}
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
}

// PublishStartSerialAware is PublishStart for software engines that must
// also respect serial sections: the attempt waits out any active serial
// section (unless it owns it) and re-checks after publishing, closing the
// window in which EnterSerial's drain scan could miss it.
func (t *Thread) PublishStartSerialAware(tx *Tx) uint64 {
	for {
		if !tx.SerialHeld {
			t.Sys.awaitSerialClear()
		}
		start := t.PublishStart()
		if tx.SerialHeld || t.Sys.SerialActive.Load() == 0 {
			return start
		}
		// A serial section began while we published; stand down and wait.
		t.ActiveStart.Store(0)
	}
}
