// Package hybrid implements a Hybrid TM: best-effort hardware transactions
// that fall back to a concurrent lazy STM — not a global lock — after
// exhausting their retry budget. The paper argues (§2.2.6) that the
// Deschedule mechanism supports HyTM with no changes, because both modes
// coordinate through the same orec table and value-based waitsets; this
// engine demonstrates that claim by being nothing but a mode switch: tm's
// simulated-hardware layer over the lazy engine, whose commits hardware
// validation already observes, so the two modes serialize against each
// other with no global lock and no mode barrier. Escape actions (waitset
// logging, descheduling) are available in the software mode, so
// Retry/Await/WaitPred switch a hardware transaction to an STM
// re-execution rather than a serialized one.
package hybrid

import (
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// Engine is the hybrid back end. Construct with New. The embedded lazy
// engine is the software mode.
type Engine struct{ lazy.Engine }

// New returns the engine factory expected by tm.NewSystem.
func New(sys *tm.System) tm.Engine {
	sys.HWLayer = true
	return &Engine{}
}

// Name implements tm.Engine.
func (*Engine) Name() string { return "hybrid" }

// Begin chooses hardware or software mode: software when escape actions
// were requested (WantSoftware/IsRetry), the hardware retry budget is
// exhausted, or the driver serialized the attempt; hardware otherwise.
func (e *Engine) Begin(tx *tm.Tx) {
	if tx.WantSoftware || tx.IsRetry || tx.Attempts > tx.Sys.Cfg.HTMMaxRetries || tx.SerialHeld {
		tx.WantSoftware = false
		e.Engine.Begin(tx)
		return
	}
	tx.BeginHW()
}

// Read implements tm.Engine.
func (e *Engine) Read(tx *tm.Tx, addr *uint64) uint64 {
	if tx.Mode == tm.ModeHW {
		return tx.ReadHW(addr)
	}
	return e.Engine.Read(tx, addr)
}

// Write implements tm.Engine.
func (e *Engine) Write(tx *tm.Tx, addr *uint64, val uint64) {
	if tx.Mode == tm.ModeHW {
		tx.WriteHW(addr, val)
		return
	}
	e.Engine.Write(tx, addr, val)
}

// Commit implements tm.Engine.
func (e *Engine) Commit(tx *tm.Tx) {
	if tx.Mode == tm.ModeHW {
		tx.CommitHW()
		return
	}
	e.Engine.Commit(tx)
}

// Rollback implements tm.Engine: both modes buffer writes, so rollback is
// retiring the hardware attempt (if any) and releasing locks.
func (e *Engine) Rollback(tx *tm.Tx) {
	tx.EndHW()
	e.Engine.Rollback(tx)
}

// AwaitSnapshot implements tm.Engine: hardware transactions must restart
// in software mode first (core.Await arranges that).
func (e *Engine) AwaitSnapshot(tx *tm.Tx) {
	if tx.Mode == tm.ModeHW {
		panic("hybrid: AwaitSnapshot requires software mode")
	}
	e.Engine.AwaitSnapshot(tx)
}
