// Package cyc provides guarded cycle arithmetic for the simulator's
// uint64 cycle domain. Raw uint64 subtraction silently wraps to a huge
// positive number when the operands arrive out of order (a completion
// timestamp older than "now", a grant issued before the request), which
// then poisons every downstream latency statistic. The simlint cycleflow analyzer flags
// unguarded uint64 subtractions in the timing packages; routing them
// through this package is the blessed form.
package cyc

// Sub returns a-b, saturating to 0 when b > a instead of wrapping.
// Use it for elapsed-cycle computations whose operands are not
// structurally ordered (completion - issue, counter deltas).
func Sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Lat returns the latency done-now of a completed transaction,
// saturating to 0 if the completion timestamp is not after issue.
// Semantically identical to Sub; the separate name documents intent at
// trace-emission sites.
func Lat(done, now uint64) uint64 {
	return Sub(done, now)
}
