// Package fixture seeds a statreg violation: a counter that is
// incremented but never read. The sibling fields demonstrate the reads
// that satisfy the analyzer (merge RHS, report expression) and the
// exemptions (non-numeric fields). BarMetrics does the same for the
// host-side telemetry scope: a metric that is mutated (Inc/Add/Set/
// Observe) but never registered with a Registry or read back.
package fixture

import "cmpsim/internal/telemetry"

type FooStats struct {
	Used   uint64
	Orphan uint64 // want "never read"
	Levels [4]uint64
	Name   string // ok: not a counter
}

// Add merges o into s — the o.* selectors are the reads that register
// Used and Levels.
func (s *FooStats) Add(o FooStats) {
	s.Used += o.Used
	for i := range s.Levels {
		s.Levels[i] += o.Levels[i]
	}
	// Incrementing is not reading: Orphan stays unregistered.
	s.Orphan += 1
	s.Orphan++
}

// Total is a report path.
func (s *FooStats) Total() uint64 {
	return s.Used
}

// BarMetrics exercises the telemetry scope. Served and Depth are
// exported — Served by Registry registration (&m.Served), Depth by a
// Value() read — but Orphan is only ever mutated, so it can never
// appear on /metrics or in a run report.
type BarMetrics struct {
	Served telemetry.Counter
	Orphan telemetry.Counter // want "never registered"
	Depth  telemetry.Gauge
	note   string // ok: not a metric or counter (and *Metrics numerics are out of scope)
	spins  uint64
}

func (m *BarMetrics) register(r *telemetry.Registry) {
	r.Counter("bar_served", "requests served", &m.Served)
}

func (m *BarMetrics) work() {
	m.Served.Inc()
	// Mutation is not export: Orphan stays unregistered.
	m.Orphan.Inc()
	m.Orphan.Add(2)
	m.Depth.Set(int64(m.spins))
	m.note = "busy"
}

func (m *BarMetrics) depth() int64 {
	return m.Depth.Value()
}

// HostStats is a recorder-shaped stats struct: fields are incremented
// on the hot path and a report renders every one of them, including an
// array read back in a loop — a field only ever incremented would be
// dead weight silently carried by every recording.
type HostStats struct {
	Windows  uint64
	SpinNs   uint64
	DeadSpin uint64 // want "never read"
	Sites    [4]uint64
}

func (s *HostStats) record(site int) {
	s.Windows++
	s.SpinNs += 10
	s.DeadSpin++
	s.Sites[site]++
}

func (s *HostStats) report() (uint64, uint64) {
	var bySite uint64
	for i := range s.Sites {
		bySite += s.Sites[i]
	}
	return s.Windows, s.SpinNs + bySite
}
