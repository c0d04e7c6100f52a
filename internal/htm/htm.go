// Package htm simulates a best-effort hardware transactional memory with a
// GCC-style software fallback, standing in for Intel TSX which is not
// available in this environment (see DESIGN.md §2). Hardware attempts are
// tm's simulated-hardware layer, unchanged; what is specific to this
// engine is the fallback:
//
//   - After HTMMaxRetries aborts the transaction serializes on a global
//     lock and runs to completion (GCC's progress guarantee). Entering the
//     serial section dooms every in-flight hardware transaction, exactly
//     as acquiring the fallback lock aborts subscribed hardware
//     transactions on real hardware.
//   - Hardware mode has no escape actions: transactions that must log a
//     waitset or deschedule re-execute in ModeSerial, an instrumented
//     software mode under the serial lock (§2.2.3). It runs alone, so it
//     stores in place behind an undo log and takes no orecs.
package htm

import (
	"sync/atomic"

	"tmsync/internal/tm"
)

// Engine is the simulated-HTM back end. Construct with New.
type Engine struct{}

// New returns the engine factory expected by tm.NewSystem.
func New(sys *tm.System) tm.Engine {
	sys.HWLayer = true
	return &Engine{}
}

// Name implements tm.Engine.
func (*Engine) Name() string { return "htm" }

// Begin chooses between hardware and serial-software execution.
func (*Engine) Begin(tx *tm.Tx) {
	switch {
	case tx.SerialHeld:
		// The driver already serialized this attempt (irrevocability);
		// run it directly in the instrumented software mode.
	case tx.WantSoftware || tx.IsRetry || tx.Attempts > tx.Sys.Cfg.HTMMaxRetries:
		tx.WantSoftware = false
		tx.Sys.EnterSerial(tx.Thr)
		tx.SerialHeld = true
		tx.Thr.Stat.Serializations.Add(1)
	default:
		tx.BeginHW()
		return
	}
	tx.Mode = tm.ModeSerial
	tx.Start = tx.Thr.PublishStart()
}

// Read implements tm.Engine.
func (*Engine) Read(tx *tm.Tx, addr *uint64) uint64 {
	if tx.Mode == tm.ModeHW {
		return tx.ReadHW(addr)
	}
	val := atomic.LoadUint64(addr)
	if tx.IsRetry {
		tx.LogCommitted(addr, val)
	}
	return val
}

// Write implements tm.Engine.
func (*Engine) Write(tx *tm.Tx, addr *uint64, val uint64) {
	if tx.Mode == tm.ModeHW {
		tx.WriteHW(addr, val)
		return
	}
	// Serial-mode stores bypass orec acquisition (the section runs
	// alone), but the post-commit wakeup still picks the waiters to
	// examine by the orecs and stripes the write set covers, so record
	// the covering orec here.
	tx.NoteWriteOrec(tx.Sys.Table.IndexOf(addr))
	tx.Undo = append(tx.Undo, tm.UndoEntry{Addr: addr, Old: atomic.LoadUint64(addr)})
	atomic.StoreUint64(addr, val)
}

// Commit implements tm.Engine. Serial commits simply bump the clock past
// their unversioned stores and release the serial lock.
func (*Engine) Commit(tx *tm.Tx) {
	if tx.Mode == tm.ModeHW {
		tx.CommitHW()
		return
	}
	if len(tx.Undo) > 0 {
		tx.Sys.Clock.Bump()
		tx.Undo = tx.Undo[:0]
	}
	tx.Sys.ExitSerialIfHeld(tx)
}

// Validate implements tm.Engine.
func (*Engine) Validate(tx *tm.Tx) bool {
	return tx.Mode == tm.ModeSerial || tx.ValidateReads()
}

// Rollback implements tm.Engine. Serial attempts undo their in-place
// writes and release the serial lock; hardware attempts discard the redo
// buffer and release any commit-time locks.
func (*Engine) Rollback(tx *tm.Tx) {
	if tx.SerialHeld {
		tx.UndoWrites()
		tx.Sys.ExitSerialIfHeld(tx)
		return
	}
	tx.EndHW()
	tx.ReleaseLocks()
}

// AwaitSnapshot implements tm.Engine. In hardware mode escape actions are
// unavailable, so the caller (core.Await) switches to software first; in
// serial mode the section runs alone, so after undoing its writes the
// committed values can be read directly.
func (*Engine) AwaitSnapshot(tx *tm.Tx, addrs []*uint64) {
	if tx.Mode != tm.ModeSerial {
		panic("htm: AwaitSnapshot requires software (serial) mode")
	}
	tx.UndoWrites()
	for _, addr := range addrs {
		tx.LogWait(addr, atomic.LoadUint64(addr))
	}
}
