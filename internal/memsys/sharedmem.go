package memsys

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/check"
	"cmpsim/internal/coherence"
	"cmpsim/internal/interconnect"
	"cmpsim/internal/obsv"
)

// SharedMem is the conventional bus-based shared-memory multiprocessor
// (Section 2.4): each CPU has a private single-cycle write-back L1 and a
// private L2 bank running at full SRAM speed (10-cycle latency, 2-cycle
// occupancy). Communication crosses the shared system bus: memory
// accesses cost 50/6 and cache-to-cache transfers cost even more
// (Table 2's "> 50 / > 6"), because all other processors must snoop
// their tags and the slowest responder gates the transfer. Both cache
// levels participate in MESI snooping, with L2 inclusive of L1.
type SharedMem struct {
	cpuSide

	l1s     []*cache.Cache
	l2s     []*cache.Cache
	l2ports interconnect.Banks // one per CPU, in front of its own L2

	snoop *coherence.Snoop
	bus   interconnect.Resource

	// chkNodes is preallocated sanitizer scratch, nil unless Check is
	// set. It is written only inside sanityCheck, which Access calls on
	// the one cycle loop.
	chkNodes []check.NodeState
}

// NewSharedMem builds the shared-memory architecture from cfg.
func NewSharedMem(cfg Config) *SharedMem {
	n := cfg.NumCPUs
	l1s := make([]*cache.Cache, n)
	l2s := make([]*cache.Cache, n)
	nodes := make([]coherence.Node, n)
	for i := 0; i < n; i++ {
		l1s[i] = cache.New(cfg.l1dGeom())
		l2s[i] = cache.New(cfg.privL2Geom())
		nodes[i] = coherence.Node{L1: l1s[i], L2: l2s[i]}
	}
	s := &SharedMem{
		l1s:     l1s,
		l2s:     l2s,
		l2ports: interconnect.NewBanks("l2-port", n),
		snoop:   coherence.NewSnoop(nodes),
		bus:     interconnect.Resource{Name: "bus"},
	}
	s.cpuSide = newCPUSide(cfg, false, func(at uint64, cpu int, la uint32) (uint64, Level) { return s.fetch(at, cpu, la, false, nil) })
	if cfg.Trace != nil {
		s.bus.Instrument(cfg.Trace, obsv.ResBus, 0)
		// Per-CPU ports: the owning CPU doubles as the bank index.
		s.l2ports.Instrument(cfg.Trace, obsv.ResL2Port)
		s.snoop.SetTracer(cfg.Trace)
	}
	if cfg.Prof != nil {
		s.snoop.SetProfiler(cfg.Prof)
	}
	if cfg.Check != nil {
		s.chkNodes = make([]check.NodeState, n)
	}
	return s
}

// Name implements System.
func (s *SharedMem) Name() string { return "shared-mem" }

// evictL2Victim enforces L2->L1 inclusion for cpu and writes dirty
// victims to memory over the bus.
func (s *SharedMem) evictL2Victim(cpu int, v cache.Victim, at uint64) {
	if !v.Valid {
		return
	}
	_, l1Dirty := s.l1s[cpu].EvictForInclusion(v.LineAddr)
	if v.Dirty || l1Dirty {
		s.bus.Acquire(at, s.cfg.MemOcc)
	}
}

// writebackL1Victim folds a dirty L1 victim into the local L2.
func (s *SharedMem) writebackL1Victim(cpu int, v cache.Victim, at uint64) {
	if !v.Valid || !v.Dirty {
		return
	}
	s.l2ports[cpu].Acquire(at, s.cfg.L2Occ)
	if ln := s.l2s[cpu].Probe(v.LineAddr); ln != nil {
		ln.State = cache.Modified
		return
	}
	// Inclusion says this cannot normally happen, but be safe: push the
	// line to memory.
	s.bus.Acquire(at, s.cfg.MemOcc)
}

// Access implements System. Stores retire through a per-CPU store
// buffer: the CPU sees one cycle while the write miss or upgrade drains
// in the background.
func (s *SharedMem) Access(now uint64, cpu int, addr uint32, write bool) (Result, bool) {
	r, ok := s.access(now, cpu, addr, write)
	if ok {
		if s.cfg.Check != nil {
			s.sanityCheck(now, cpu, addr, r)
		}
		s.cfg.traceAccess(now, cpu, addr, write, r.Level, r.Done-now)
	}
	return r, ok
}

// sanityCheck validates the completed transaction under -sanitize: the
// completion time, then the MESI/inclusion invariants for the touched
// line across all four private hierarchies. It is an arbitration point
// for its scratch buffer: callers reach it only through Access, which
// executes under the cycle loop's serial-order grant.
func (s *SharedMem) sanityCheck(now uint64, cpu int, addr uint32, r Result) {
	chk := s.cfg.Check
	chk.CheckAccessTime(now, r.Done, cpu, addr)
	la := s.l1s[cpu].LineAddr(addr)
	for i := range s.l1s {
		s.chkNodes[i] = check.NodeState{L1: s.l1s[i].Probe(la), L2: s.l2s[i].Probe(la)}
	}
	chk.CheckMESI(now, la, s.chkNodes)
}

// access follows the refusal rule of Result: the write buffer (stores)
// and the MSHR file (a reference the L1 probe says would be a primary
// miss) are tested first, and only an accepted reference counts the L1
// lookup, breaks the other CPUs' reservations and takes the L2 port and
// the bus.
func (s *SharedMem) access(now uint64, cpu int, addr uint32, write bool) (Result, bool) {
	l1 := s.l1s[cpu]
	la := l1.LineAddr(addr)
	if write && s.wbufs[cpu].full(now) {
		return s.wbufFull(now, cpu)
	}
	// A line enters this L1 only through this CPU's own primary miss,
	// and every one of those is refused until an entry frees, so no
	// earlier retry can find the line.
	ln := l1.Probe(addr)
	if ln == nil && s.mshrs[cpu].Full(now) {
		return Result{Done: s.mshrs[cpu].NextFree(), Level: LvlL1}, false
	}
	if write {
		s.breakReservations(cpu, addr)
	}

	if l1.AccessProbed(ln, addr, write).Hit {
		// A hit on a line whose miss is still outstanding waits for the
		// fill, and then takes the same transition as any other hit: a
		// merged store to a Shared line still upgrades.
		done, lvl := now+1, LvlL1
		if fill, tag, merged := s.mshrs[cpu].Lookup(now, la); merged {
			done, lvl = max(now+1, fill), Level(tag)
		}
		nl1, nl2, bus := coherence.Local(ln.State, cache.Invalid, write)
		ln.State = nl1
		if bus != coherence.BusNone { // an upgrade: invalidate the other copies
			at, blvl, _ := s.transact(now, now+1, cpu, la, bus)
			if l2ln := s.l2s[cpu].Probe(la); l2ln != nil {
				l2ln.State = nl2
			}
			done, lvl = max(done, at), blvl
		}
		return s.finish(now, cpu, write, done, lvl)
	}

	// L1 miss; the probe above found an MSHR free for it.
	dataAt, lvl := s.fetch(now+1, cpu, la, write, l1)
	s.mshrs[cpu].Allocate(now, la, dataAt, uint8(lvl))
	return s.finish(now, cpu, write, dataAt, lvl)
}

// fetch serves cpu's L1 miss on line la, leaving the L1 at reqTime:
// through the CPU's own L2 port, then over the bus when Local asks for
// a transaction. It fills l1 (nil for an I-cache miss, which cpuSide
// fills) in the state Local gives it and returns the cycle the data is
// ready and the level that supplied it.
func (s *SharedMem) fetch(reqTime uint64, cpu int, la uint32, write bool, l1 *cache.Cache) (uint64, Level) {
	start := s.l2ports[cpu].Acquire(reqTime, s.cfg.L2Occ)
	at := start + s.cfg.L2Lat
	l2 := s.l2s[cpu]
	ln := l2.Probe(la)
	l2st := cache.Invalid
	if l2.AccessProbed(ln, la, write).Hit {
		l2st = ln.State
	}
	nl1, nl2, bus := coherence.Local(cache.Invalid, l2st, write)
	dataAt, lvl := at, LvlL2
	if bus != coherence.BusNone {
		var sn coherence.SnoopResult
		dataAt, lvl, sn = s.transact(at, at, cpu, la, bus)
		nl1, nl2 = sn.Fill(nl1), sn.Fill(nl2)
	}
	if ln != nil {
		ln.State = nl2
	} else {
		// Victim traffic drains concurrently with the fill; charge it
		// adjacent to the transaction, not at the future completion.
		s.evictL2Victim(cpu, l2.Fill(la, nl2), at)
	}
	if l1 != nil {
		s.writebackL1Victim(cpu, l1.Fill(la, nl1), start+s.cfg.L2Occ)
	}
	return dataAt, lvl
}

// transact runs bus transaction b for cpu's line la, snooped at snoopAt
// and asking for the bus at busAt, and returns the cycle its data (or,
// for an upgrade, its invalidation) is done, the level that supplied
// it and what the snoop found.
func (s *SharedMem) transact(snoopAt, busAt uint64, cpu int, la uint32, b coherence.Bus) (uint64, Level, coherence.SnoopResult) {
	sn := s.snoop.Do(snoopAt, cpu, la, b)
	switch {
	case b == coherence.BusUpgr:
		return s.bus.Acquire(busAt, 2) + s.cfg.UpgLat, LvlC2C, sn
	case sn.RemoteCopy:
		// Cache-to-cache transfer: every other processor checks its tags
		// and the owner sources the line (Table 2: > 50 cycles).
		return s.bus.Acquire(busAt, s.cfg.C2COcc) + s.cfg.C2CLat, LvlC2C, sn
	}
	return s.bus.Acquire(busAt, s.cfg.MemOcc) + s.cfg.MemLat, LvlMem, sn
}

// Report implements System.
func (s *SharedMem) Report() Report {
	rep := s.report(s.Name())
	for _, l1 := range s.l1s {
		rep.L1D.Add(l1.Stats())
	}
	for _, l2 := range s.l2s {
		rep.L2.Add(l2.Stats())
	}
	sn := s.snoop.Stats()
	rep.Snoop = &sn
	rep.Resources = []interconnect.ResourceStats{s.bus.Stats(), s.l2ports.Stats()}
	return rep
}
