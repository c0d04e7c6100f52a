// Package tmsync is a Go reproduction of "Practical Condition
// Synchronization for Transactional Memory" (Wang, 2016; the EuroSys 2016
// line of work from Spear's group at Lehigh).
//
// It provides four transactional-memory engines — an eager (undo-log)
// STM, a lazy (redo-log) STM, a simulated best-effort HTM with a serial
// software fallback, and a hybrid TM whose hardware attempts fall back to
// the lazy STM — plus the paper's condition-synchronization mechanisms
// layered on a single HTM-friendly Deschedule primitive:
//
//   - Retry:    wait until anything the transaction read changes value.
//   - Await:    wait until one of an explicit list of addresses changes.
//   - WaitPred: wait until a user predicate over shared state holds.
//
// For comparison it also ships transaction-safe condition variables
// (TMCondVar), the original metadata-based Retry (RetryOrig), and an
// abort-and-respin Restart helper — the full set of mechanisms evaluated
// in the paper.
//
// The package example (example_test.go) is a compiling quick start: one
// goroutine sleeps in Retry until another's commit hands it an item.
package tmsync

import (
	"fmt"

	"tmsync/internal/condvar"
	"tmsync/internal/core"
	"tmsync/internal/htm"
	"tmsync/internal/hybrid"
	"tmsync/internal/stm/eager"
	"tmsync/internal/stm/lazy"
	"tmsync/internal/tm"
)

// EngineKind selects a TM back end.
type EngineKind string

const (
	// Eager is the undo-log STM of Appendix A (GCC "ml-wt" analogue).
	Eager EngineKind = "eager"
	// Lazy is the redo-log, TL2-style STM.
	Lazy EngineKind = "lazy"
	// HTM is the simulated best-effort hardware TM with serial fallback.
	HTM EngineKind = "htm"
	// Hybrid is the simulated best-effort hardware TM with a concurrent
	// lazy-STM fallback instead of a global lock (the HyTM extension of
	// §2.2.6).
	Hybrid EngineKind = "hybrid"
)

// EngineKinds lists all back ends, in the order the paper evaluates them
// (Hybrid is this reproduction's extension).
var EngineKinds = []EngineKind{Eager, Lazy, HTM, Hybrid}

// Config re-exports the runtime configuration.
type Config = tm.Config

// Tx is a transaction handle passed to atomic blocks.
type Tx = tm.Tx

// Thread is a per-worker handle; each goroutine running transactions owns
// exactly one.
type Thread = tm.Thread

// Pred is a WaitPred wakeup predicate.
type Pred = core.Pred

// System bundles a TM instance with its condition-synchronization runtime.
type System struct {
	*tm.System
	CS *core.CondSync
}

// New builds a System with the chosen engine. Every software-mode commit
// is privatization-safe (it quiesces), matching the paper's
// privatization-safe configurations.
func New(kind EngineKind, cfg Config) *System {
	var mk func(*tm.System) tm.Engine
	switch kind {
	case Eager:
		mk = eager.New
	case Lazy:
		mk = lazy.New
	case HTM:
		mk = htm.New
	case Hybrid:
		mk = hybrid.New
	default:
		panic(fmt.Sprintf("tmsync: unknown engine %q", kind))
	}
	sys := tm.NewSystem(cfg, mk)
	cs := core.Enable(sys)
	return &System{System: sys, CS: cs}
}

// Retry suspends the transaction until some location it read changes value
// (Algorithm 5). The transaction is fully rolled back first; on wakeup it
// re-executes from the top of the atomic block.
func Retry(tx *Tx) { core.Retry(tx) }

// Await suspends the transaction until one of addrs — which it must have
// read — changes value (Algorithm 6).
func Await(tx *Tx, addrs ...*uint64) { core.Await(tx, addrs...) }

// WaitPred suspends the transaction until pred(args) holds (Algorithm 7).
func WaitPred(tx *Tx, pred Pred, args ...uint64) { core.WaitPred(tx, pred, args...) }

// RetryOrig is the original metadata-based Retry (Algorithm 1); STM only.
func RetryOrig(tx *Tx) { core.RetryOrig(tx) }

// CondVar is a transaction-safe condition variable (the paper's TMCondVar
// baseline): Wait commits the in-flight transaction — breaking atomicity —
// sleeps, and re-executes the atomic block; Signal and Broadcast are
// deferred until the signalling transaction commits.
type CondVar = condvar.Var

// NewCondVar returns an empty transaction-safe condition variable.
func NewCondVar() *CondVar { return condvar.New() }
