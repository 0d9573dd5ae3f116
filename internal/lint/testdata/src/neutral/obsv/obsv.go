// Package obsv is the neutral fixture's stand-in observability surface.
// The test preloads it under the import path
// "cmpsim/lintfixture/internal/obsv", whose suffix makes the analyzer
// treat its declarations as observability state.
package obsv

// Metrics mimics a polled sampler: Due/NextDue/Count produce observation
// data the simulator must not consume, and Record feeds it.
type Metrics struct {
	interval uint64
	n        uint64
}

func (m *Metrics) NextDue() uint64 { return m.interval * (m.n + 1) }

func (m *Metrics) Count() uint64 { return m.n }

func (m *Metrics) Due(now uint64) bool { return m.interval != 0 && now%m.interval == 0 }

func (m *Metrics) Record(now uint64) { m.n++ }

// Probe mimics a sample record: plain-typed fields of an obs struct.
type Probe struct {
	Cycle uint64
	Insts []uint64
}

// Dropped mimics an obs package-level counter.
var Dropped uint64
