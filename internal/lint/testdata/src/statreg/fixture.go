// Package fixture seeds a statreg violation: a counter that is
// incremented but never read. The sibling fields demonstrate the reads
// that satisfy the analyzer (merge RHS, report expression) and the
// exemptions (non-numeric fields).
package fixture

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

// DirStats is the bug every test misses: Evicts is counted and its test
// reads it, but no report prints it. Test files are not loaded, so the
// test's read does not count.
type DirStats struct {
	Invalidations uint64
	Evicts        uint64 // want "never read"
}

func (s *DirStats) evict() { s.Evicts++ }

func (s *DirStats) report() uint64 { return s.Invalidations }
