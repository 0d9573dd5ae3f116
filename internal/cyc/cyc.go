// Package cyc provides saturating arithmetic for the simulator's uint64
// cycle and counter domain. Raw uint64 subtraction wraps to a huge
// positive number when its operands are out of order, so a difference
// whose operands have no structural order goes through Sub, as obsv's
// interval deltas against a snapshot do. Where the order is structural
// the simulator subtracts directly: a memory-system completion is never
// before its issue cycle, which the sanitizer checks on every accepted
// reference.
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
