// Package fixture seeds one violation per determinism rule, plus the
// legal patterns the analyzer must not flag. Lines carrying a
// deliberate violation are annotated with want-comments naming a
// message substring; the test harness requires exactly those findings.
package fixture

import (
	"math/rand"
	"os" // want "imports os"
	"time"
)

type table struct {
	m map[uint32]uint64
}

func (t *table) tick(now uint64) uint64 {
	_ = time.Now() // want "wall clock"

	go func() {}() // want "goroutine"

	x := rand.Uint64() // want "global random source"

	seeded := rand.New(rand.NewSource(1)) // ok: explicitly seeded generator
	x += seeded.Uint64()                  // ok: method on the seeded generator

	for k := range t.m { // want "nondeterministic order"
		x += uint64(k)
	}

	//simlint:allow determinism — fixture: suppression must silence the next line
	for k := range t.m {
		x += uint64(k)
	}

	_ = time.Duration(now) // ok: pure type, no clock access
	// The bug every test misses: with the variable unset each run is
	// plain, and with it set two runs under one result-cache key differ.
	_ = os.Getenv("CMPSIM_MODE") // ok: reported once, at the import
	return x
}
