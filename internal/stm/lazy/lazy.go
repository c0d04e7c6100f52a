// Package lazy is the redo-log software TM in the style of TL2 (the "Lazy
// STM" configuration of the evaluation): the shared orec protocol of
// package tm composed with buffered writes and commit-time locking. What
// is specific to it is only the read path's consultation of the redo log;
// the two-phase commit is tm's CommitRedo, which the hardware modes of the
// htm and hybrid engines run too.
package lazy

import "tmsync/internal/tm"

// Engine is the lazy STM back end. Construct with New. The hybrid engine
// embeds it as its software mode.
type Engine struct{}

// New returns the engine factory expected by tm.NewSystem.
func New(*tm.System) tm.Engine { return &Engine{} }

// Name implements tm.Engine.
func (*Engine) Name() string { return "lazy" }

// Begin implements tm.Engine.
func (*Engine) Begin(tx *tm.Tx) { tx.BeginSoftware() }

// Read returns the transaction's own buffered write if one exists,
// otherwise a validated read of committed memory. When re-executing for
// Retry it reads (and logs to the waitset) the committed value even for
// read-after-write accesses, so that the waitset never contains
// speculative (out-of-thin-air) values.
func (*Engine) Read(tx *tm.Tx, addr *uint64) uint64 {
	buf, buffered := tx.Redo.Get(addr)
	if buffered && !tx.IsRetry {
		return buf
	}
	val := tx.ReadCommitted(addr)
	if tx.IsRetry {
		tx.LogWait(addr, val)
	}
	if buffered {
		return buf
	}
	return val
}

// Write buffers the store in the redo log.
func (*Engine) Write(tx *tm.Tx, addr *uint64, val uint64) {
	tx.Redo.Put(addr, val, tx.Sys.Table.IndexOf(addr))
}

// Commit implements tm.Engine.
func (*Engine) Commit(tx *tm.Tx) { tx.CommitRedo() }

// Rollback discards the redo log (memory was never touched before
// validation succeeded) and releases any commit-time locks.
func (*Engine) Rollback(tx *tm.Tx) { tx.ReleaseLocks() }

// AwaitSnapshot implements tm.Engine: speculative writes live only in the
// redo log, so the committed values are read directly from memory.
func (*Engine) AwaitSnapshot(tx *tm.Tx) { tx.AwaitSnapshot() }
