// Package mono is a thin veneer over Go's monotonic clock for elapsed-time
// measurement (benchmark rates, harness durations, wake-latency samples).
// The monotonic guarantee is Go's, not this package's: time.Now captures a
// monotonic reading alongside the wall reading, and time.Since and Sub
// subtract on the monotonic half, so a wall-clock step (NTP adjustment,
// suspend/resume) cannot corrupt a duration taken either way. No analyzer
// enforces the use of this package. Wrapping the reading in an opaque Time
// only keeps callers from mixing it back into wall-clock arithmetic (no
// Add, no After, no Format).
package mono

import "time"

// Time is one monotonic-clock reading. The zero Time is the zero wall
// instant with no monotonic reading; always obtain Times from Now.
type Time struct {
	t time.Time
}

// Now captures a monotonic reading.
func Now() Time {
	return Time{t: time.Now()} // only the monotonic half is ever used
}

// Elapsed returns the time that has passed since the reading was taken.
// It is non-negative and immune to wall-clock steps.
func (t Time) Elapsed() time.Duration {
	d := time.Since(t.t) // subtracts on the monotonic half of the reading
	if d < 0 {
		return 0
	}
	return d
}

// Timed runs fn and returns how long it took.
func Timed(fn func()) time.Duration {
	start := Now()
	fn()
	return start.Elapsed()
}
