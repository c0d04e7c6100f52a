// Package eager is the undo-log software TM of Appendix A (the GCC "ml-wt"
// configuration of the evaluation): the shared orec protocol of package tm
// composed with encounter-time locking and in-place updates. What is
// specific to it is the undo log, acquiring an orec at the first write to
// it, and reading its own stores straight from memory.
package eager

import (
	"sync/atomic"

	"tmsync/internal/tm"
)

// Engine is the eager STM back end. Construct with New.
type Engine struct{}

// New returns the engine factory expected by tm.NewSystem.
func New(*tm.System) tm.Engine { return &Engine{} }

// Name implements tm.Engine.
func (*Engine) Name() string { return "eager" }

// Begin implements tm.Engine.
func (*Engine) Begin(tx *tm.Tx) { tx.BeginSoftware() }

// Read implements Algorithm 10's TxRead. When the transaction is
// re-executing for Retry it also logs the committed address/value pair to
// the waitset (Algorithm 5) — for a word it stored to itself, the value
// its undo log preserves.
func (*Engine) Read(tx *tm.Tx, addr *uint64) uint64 {
	val := tx.ReadCommitted(addr)
	if tx.IsRetry {
		tx.LogCommitted(addr, val)
	}
	return val
}

// Write implements Algorithm 10's TxWrite: acquire the covering orec at
// first touch, record the old value in the undo log, and update memory in
// place. Only an orec the snapshot covers may be locked: the in-place
// store must not bury a value newer than the attempt's reads.
func (*Engine) Write(tx *tm.Tx, addr *uint64, val uint64) {
	idx := tx.Sys.Table.IndexOf(addr)
	if w := tx.Sys.Table.Get(idx); !tx.Owns(w) {
		if !tx.Covers(w) {
			tx.Abort(tm.AbortConflict)
		}
		tx.Acquire(idx, w)
	}
	tx.Undo = append(tx.Undo, tm.UndoEntry{Addr: addr, Old: atomic.LoadUint64(addr)})
	atomic.StoreUint64(addr, val)
}

// Commit implements Algorithm 9's TxCommit: memory is already up to date,
// so a writer stamps, drops its undo log and publishes; read-only
// transactions commit for free.
func (*Engine) Commit(tx *tm.Tx) {
	if len(tx.Locks) == 0 {
		return
	}
	s := tx.CommitStamp()
	tx.Undo = tx.Undo[:0]
	tx.Publish(s)
}

// Rollback implements Algorithm 11's TxAbort: undo the in-place writes
// while their locks are still held, then release. Safe to call when
// AwaitSnapshot has already applied the undo log.
func (*Engine) Rollback(tx *tm.Tx) {
	tx.UndoWrites()
	tx.ReleaseLocks()
}

// AwaitSnapshot implements tm.Engine.
func (*Engine) AwaitSnapshot(tx *tm.Tx) { tx.AwaitSnapshot() }
