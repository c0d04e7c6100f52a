// Package mech names the seven condition-synchronization mechanisms the
// evaluation compares, shared by the bounded-buffer and PARSEC-skeleton
// workloads, the figure commands and the differential checker.
package mech

// Mechanism names one condition-synchronization technique.
type Mechanism string

const (
	// Pthreads is the lock + condition-variable baseline (no TM).
	Pthreads Mechanism = "pthreads"
	// TMCondVar is transactions + transaction-safe condition variables.
	TMCondVar Mechanism = "tmcondvar"
	// WaitPred is Deschedule with an explicit user predicate (Alg. 7).
	WaitPred Mechanism = "waitpred"
	// Await is Deschedule on a static address list (Alg. 6).
	Await Mechanism = "await"
	// Retry is Deschedule on the dynamic read set (Alg. 5).
	Retry Mechanism = "retry"
	// RetryOrig is the original metadata-based retry (Alg. 1; STM only).
	RetryOrig Mechanism = "retry-orig"
	// Restart aborts and immediately re-attempts (no sleeping).
	Restart Mechanism = "restart"
)

// TM lists the transactional mechanisms (everything but Pthreads), in the
// order the paper's legends use.
var TM = []Mechanism{TMCondVar, WaitPred, Await, Retry, RetryOrig, Restart}

// ForEngine returns the transactional mechanisms applicable to an engine:
// Retry-Orig is STM-only (the paper's HTM figures omit it; hardware modes
// expose no metadata). The figure commands put the Pthreads baseline in
// front themselves.
func ForEngine(engine string) []Mechanism {
	out := make([]Mechanism, 0, len(TM))
	for _, m := range TM {
		if m == RetryOrig && (engine == "htm" || engine == "hybrid") {
			continue
		}
		out = append(out, m)
	}
	return out
}
