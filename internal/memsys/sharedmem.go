package memsys

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/check"
	"cmpsim/internal/coherence"
	"cmpsim/internal/cyc"
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
	cfg Config
	res reservations

	icaches []*cache.Cache
	l1s     []*cache.Cache
	l2s     []*cache.Cache
	l2ports []interconnect.Resource
	mshrs   []*cache.MSHRFile

	snoop *coherence.Snoop
	bus   interconnect.Resource
	wbufs []writeBuf

	// chkNodes is preallocated sanitizer scratch, nil unless Check is
	// set. It is written only inside sanityCheck, which runs under the
	// memory system's serial-order arbitration: sanityCheck is called
	// from Access, and every Access happens either on the serial cycle
	// loop or under the parallel scheduler's tick-gate grant (in
	// practice a Checker forces the serial loop outright — parActive
	// refuses to shard sanitized runs).
	chkNodes []check.NodeState
}

// NewSharedMem builds the shared-memory architecture from cfg.
func NewSharedMem(cfg Config) *SharedMem {
	n := cfg.NumCPUs
	l1s := make([]*cache.Cache, n)
	l2s := make([]*cache.Cache, n)
	ports := make([]interconnect.Resource, n)
	mshrs := make([]*cache.MSHRFile, n)
	nodes := make([]coherence.Node, n)
	for i := 0; i < n; i++ {
		l1s[i] = cache.New(cache.Config{
			Name:      "l1d",
			SizeBytes: cfg.L1DSize,
			LineBytes: cfg.LineBytes,
			Assoc:     cfg.L1DAssoc,
		})
		l2s[i] = cache.New(cache.Config{
			Name:      "priv-l2",
			SizeBytes: cfg.PrivL2Size,
			LineBytes: cfg.LineBytes,
			Assoc:     cfg.L2Assoc,
		})
		ports[i] = interconnect.Resource{Name: "l2-port"}
		mshrs[i] = cache.NewMSHRFile(cfg.MSHRs)
		nodes[i] = coherence.Node{L1: l1s[i], L2: l2s[i]}
	}
	s := &SharedMem{
		cfg:     cfg,
		res:     newReservations(n, cfg.LineBytes),
		icaches: newICaches(cfg),
		l1s:     l1s,
		l2s:     l2s,
		l2ports: ports,
		mshrs:   mshrs,
		snoop:   coherence.NewSnoop(nodes),
		bus:     interconnect.Resource{Name: "bus"},
		wbufs:   newWriteBufs(n, cfg.WriteBufDepth),
	}
	if cfg.Trace != nil {
		s.bus.Instrument(cfg.Trace, obsv.ResBus, 0)
		for i := range s.l2ports {
			// Per-CPU ports: the owning CPU doubles as the bank index.
			s.l2ports[i].Instrument(cfg.Trace, obsv.ResL2Port, uint32(i))
			s.mshrs[i].SetTracer(cfg.Trace, i)
		}
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

// LLReserve implements System.
func (s *SharedMem) LLReserve(cpu int, addr uint32) { s.res.set(cpu, addr) }

// SCCheck implements System.
func (s *SharedMem) SCCheck(cpu int, addr uint32) bool { return s.res.checkAndClear(cpu, addr) }

// ClearReservation implements System.
func (s *SharedMem) ClearReservation(cpu int) { s.res.clear(cpu) }

// l1FillState derives the L1 fill state from the local L2 line's state.
func l1FillState(l2State cache.State) cache.State {
	if l2State == cache.Shared {
		return cache.Shared
	}
	// E or M in L2: the L1 may take it exclusively and upgrade silently.
	return cache.Exclusive
}

// busFetch performs the bus transaction for a local L2 miss. write says
// whether this is a BusRdX (write miss). Returns data-ready cycle, the
// supplying level and the state the requester should fill in.
func (s *SharedMem) busFetch(cpu int, reqTime uint64, lineAddr uint32, write bool) (uint64, Level, cache.State) {
	var sn coherence.SnoopResult
	if write {
		sn = s.snoop.Write(reqTime, cpu, lineAddr)
	} else {
		sn = s.snoop.Read(reqTime, cpu, lineAddr)
	}
	if sn.RemoteCopy {
		// Cache-to-cache transfer: every other processor checks its tags
		// and the owner sources the line (Table 2: > 50 cycles).
		start := s.bus.Acquire(reqTime, s.cfg.C2COcc)
		st := cache.Shared
		if write {
			st = cache.Modified
		}
		return start + s.cfg.C2CLat, LvlC2C, st
	}
	start := s.bus.Acquire(reqTime, s.cfg.MemOcc)
	st := cache.Exclusive
	if write {
		st = cache.Modified
	}
	return start + s.cfg.MemLat, LvlMem, st
}

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
		s.cfg.traceAccess(now, cpu, addr, write, r.Level, cyc.Lat(r.Done, now))
		if s.cfg.Check != nil {
			s.sanityCheck(now, cpu, addr, r)
		}
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

// MSHROutstanding returns the in-flight misses summed over the CPUs'
// MSHR files at cycle now.
func (s *SharedMem) MSHROutstanding(now uint64) int {
	n := 0
	for _, m := range s.mshrs {
		n += m.Outstanding(now)
	}
	return n
}

// access follows the refusal rule of Result: the write buffer (stores)
// and the MSHR file (a reference the L1 probe says would be a primary
// miss) are tested first, and only an accepted reference counts the L1
// lookup, breaks the other CPUs' reservations and takes the L2 port and
// the bus.
func (s *SharedMem) access(now uint64, cpu int, addr uint32, write bool) (Result, bool) {
	l1 := s.l1s[cpu]
	la := l1.LineAddr(addr)
	if write {
		if s.wbufs[cpu].full(now) {
			s.cfg.traceRefusal(now, cpu, obsv.EvWBufFull)
			return Result{Done: s.wbufs[cpu].nextFree(), Level: LvlL2}, false
		}
	}
	// A line enters this L1 only through this CPU's own primary miss,
	// and every one of those is refused until an entry frees, so no
	// earlier retry can find the line.
	ln := l1.Probe(addr)
	if ln == nil && s.mshrs[cpu].Full(now) {
		return Result{Done: s.mshrs[cpu].NextFree(), Level: LvlL1}, false
	}
	if write {
		s.res.clearOthers(cpu, addr)
	}

	finish := func(done uint64, lvl Level) (Result, bool) {
		if write {
			s.wbufs[cpu].add(done)
			return Result{Done: now + 1, Level: LvlL1}, true
		}
		return Result{Done: done, Level: lvl}, true
	}

	if l1.AccessProbed(ln, addr, write).Hit {
		if done, tag, merged := s.mshrs[cpu].Lookup(now, la); merged {
			if write {
				ln.State = cache.Modified
			}
			return finish(maxU64(now+1, done), Level(tag))
		}
		if !write {
			return Result{Done: now + 1, Level: LvlL1}, true
		}
		switch ln.State {
		case cache.Modified:
			return finish(now+1, LvlL1)
		case cache.Exclusive:
			ln.State = cache.Modified
			return finish(now+1, LvlL1)
		default: // Shared: bus upgrade to invalidate the other copies
			s.snoop.Upgrade(now, cpu, la)
			start := s.bus.Acquire(now+1, 2)
			ln.State = cache.Modified
			if l2ln := s.l2s[cpu].Probe(la); l2ln != nil {
				l2ln.State = cache.Modified
			}
			return finish(start+s.cfg.UpgLat, LvlC2C)
		}
	}

	// L1 miss; the probe above found an MSHR free for it.
	start := s.l2ports[cpu].Acquire(now+1, s.cfg.L2Occ)
	l2 := s.l2s[cpu]
	l2r := l2.Access(la, write)
	var dataAt uint64
	var lvl Level
	var l1State cache.State
	if l2r.Hit {
		dataAt = start + s.cfg.L2Lat
		lvl = LvlL2
		ln := l2.Probe(la)
		if write {
			if ln.State == cache.Shared {
				// Write to a shared line: upgrade on the bus first.
				s.snoop.Upgrade(dataAt, cpu, la)
				bstart := s.bus.Acquire(dataAt, 2)
				dataAt = bstart + s.cfg.UpgLat
				lvl = LvlC2C
			}
			ln.State = cache.Modified
			l1State = cache.Modified
		} else {
			l1State = l1FillState(ln.State)
		}
	} else {
		var fillState cache.State
		dataAt, lvl, fillState = s.busFetch(cpu, start+s.cfg.L2Lat, la, write)
		victim := l2.Fill(la, fillState)
		// Victim traffic drains concurrently with the fill; charge it
		// adjacent to the transaction, not at the future completion.
		s.evictL2Victim(cpu, victim, start+s.cfg.L2Lat)
		if write {
			l1State = cache.Modified
		} else {
			l1State = l1FillState(fillState)
		}
	}
	v := l1.Fill(addr, l1State)
	s.writebackL1Victim(cpu, v, start+s.cfg.L2Occ)
	s.mshrs[cpu].Allocate(now, la, dataAt, uint8(lvl))
	return finish(dataAt, lvl)
}

// IFetch implements System. Instruction misses go through the CPU's own
// L2; kernel text shared between processes may be sourced from a remote
// cache over the bus.
func (s *SharedMem) IFetch(now uint64, cpu int, addr uint32) Result {
	ic := s.icaches[cpu]
	la := ic.LineAddr(addr)
	r := ic.Access(addr, false)
	if r.Hit {
		return Result{Done: now + 1, Level: LvlL1}
	}
	start := s.l2ports[cpu].Acquire(now+1, s.cfg.L2Occ)
	l2 := s.l2s[cpu]
	l2r := l2.Access(la, false)
	var dataAt uint64
	var lvl Level
	if l2r.Hit {
		dataAt = start + s.cfg.L2Lat
		lvl = LvlL2
	} else {
		var fillState cache.State
		dataAt, lvl, fillState = s.busFetch(cpu, start+s.cfg.L2Lat, la, false)
		victim := l2.Fill(la, fillState)
		s.evictL2Victim(cpu, victim, start+s.cfg.L2Lat)
	}
	ic.Fill(addr, cache.Exclusive)
	s.cfg.traceIFetch(now, cpu, addr, lvl, cyc.Lat(dataAt, now))
	if s.cfg.Check != nil {
		s.cfg.Check.CheckAccessTime(now, dataAt, cpu, addr)
	}
	return Result{Done: dataAt, Level: lvl}
}

// Report implements System.
func (s *SharedMem) Report() Report {
	rep := Report{Name: s.Name()}
	for _, ic := range s.icaches {
		rep.L1I.Add(ic.Stats())
	}
	for _, l1 := range s.l1s {
		rep.L1D.Add(l1.Stats())
	}
	for _, l2 := range s.l2s {
		rep.L2.Add(l2.Stats())
	}
	sn := s.snoop.Stats()
	rep.Snoop = &sn
	res := []interconnect.ResourceStats{s.bus.Stats()}
	var ports interconnect.ResourceStats
	for i := range s.l2ports {
		st := s.l2ports[i].Stats()
		ports.Name = st.Name
		ports.Acquires += st.Acquires
		ports.WaitCycles += st.WaitCycles
		ports.BusyCycles += st.BusyCycles
	}
	rep.Resources = append(res, ports)
	return rep
}
