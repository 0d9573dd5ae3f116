// Package driver is the determinism fixture loaded as a package outside
// the simulator core (a workload's reference computation): only the
// float-product rule applies there, so the wall clock, the goroutine and
// the os import go unflagged.
package driver

import (
	"os"
	"time"
)

func reference(a, b, c float64) float64 {
	_ = time.Now()          // ok: outside the core
	go func() {}()          // ok: outside the core
	_ = os.Getenv("SEED")   // ok: outside the core
	d := a*b + c            // want "may be fused"
	return d - float64(a*b) // ok: the conversion rounds the product
}
