package memsys

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/cyc"
	"cmpsim/internal/interconnect"
	"cmpsim/internal/obsv"
)

// SharedL1 is the shared-primary-cache multiprocessor (Section 2.2):
// four CPUs share one 64KB 2-way, 4-banked write-back L1 data cache
// through a crossbar. Below it sit a uniprocessor-style L2 (10-cycle
// latency, 2-cycle occupancy over a 128-bit bus) and main memory
// (50/6). No coherence mechanism is needed — there is only one data
// cache — and LL/SC reservations are the only inter-CPU monitor state.
//
// Under the simple CPU model the L1 hit time is the paper's optimistic
// 1 cycle with no bank contention; Config.MXS() enables the true
// 3-cycle hit time and crossbar bank arbitration.
type SharedL1 struct {
	cfg Config
	res reservations

	icaches []*cache.Cache
	dcache  *cache.Cache
	dbanks  interconnect.Banks
	mshr    *cache.MSHRFile // one file on the shared cache's miss path

	l2     *cache.Cache
	l2port interconnect.Resource
	mem    interconnect.Resource

	wbufs []writeBuf
}

// NewSharedL1 builds the shared-L1 architecture from cfg.
func NewSharedL1(cfg Config) *SharedL1 {
	s := &SharedL1{
		cfg:     cfg,
		res:     newReservations(cfg.NumCPUs, cfg.LineBytes),
		icaches: newICaches(cfg),
		dcache: cache.New(cache.Config{
			Name:      "shared-l1d",
			SizeBytes: cfg.SharedL1Size,
			LineBytes: cfg.LineBytes,
			Assoc:     cfg.SharedL1Assoc,
			Banks:     cfg.SharedL1Banks,
		}),
		dbanks: interconnect.NewBanks("l1-bank", int(cfg.SharedL1Banks)),
		mshr:   cache.NewMSHRFile(cfg.MSHRs * cfg.NumCPUs),
		l2: cache.New(cache.Config{
			Name:      "l2",
			SizeBytes: cfg.L2Size,
			LineBytes: cfg.LineBytes,
			Assoc:     cfg.L2Assoc,
		}),
		l2port: interconnect.Resource{Name: "l2-port"},
		mem:    interconnect.Resource{Name: "memory"},
		wbufs:  newWriteBufs(cfg.NumCPUs, cfg.WriteBufDepth),
	}
	if cfg.Trace != nil {
		s.dbanks.Instrument(cfg.Trace, obsv.ResL1Bank)
		s.l2port.Instrument(cfg.Trace, obsv.ResL2Port, 0)
		s.mem.Instrument(cfg.Trace, obsv.ResMem, 0)
		s.mshr.SetTracer(cfg.Trace, -1) // the MSHR file is shared, not per-CPU
	}
	return s
}

// Name implements System.
func (s *SharedL1) Name() string { return "shared-l1" }

// LLReserve implements System.
func (s *SharedL1) LLReserve(cpu int, addr uint32) { s.res.set(cpu, addr) }

// SCCheck implements System.
func (s *SharedL1) SCCheck(cpu int, addr uint32) bool { return s.res.checkAndClear(cpu, addr) }

// ClearReservation implements System.
func (s *SharedL1) ClearReservation(cpu int) { s.res.clear(cpu) }

// l2Fetch services a shared-L1 (or I-cache) miss from the L2 and memory,
// returning the data-ready cycle and the level that supplied the data.
// reqTime is the cycle at which the miss leaves the L1 level.
func (s *SharedL1) l2Fetch(reqTime uint64, lineAddr uint32) (uint64, Level) {
	start := s.l2port.Acquire(reqTime, s.cfg.L2Occ)
	r := s.l2.Access(lineAddr, false)
	if r.Hit {
		return start + s.cfg.L2Lat, LvlL2
	}
	mstart := s.mem.Acquire(start+s.cfg.L2Lat, s.cfg.MemOcc)
	dataAt := mstart + s.cfg.MemLat
	victim := s.l2.Fill(lineAddr, cache.Exclusive)
	if victim.Valid && victim.Dirty {
		// The dirty victim drains to memory concurrently with the fill;
		// charge its occupancy adjacent to the fetch so it contends with
		// other transactions but never blocks earlier ones (the
		// busy-until model cannot backfill around a future reservation).
		s.mem.Acquire(mstart+s.cfg.MemOcc, s.cfg.MemOcc)
	}
	return dataAt, LvlMem
}

// writebackToL2 handles a dirty victim leaving the shared L1. at is the
// time the victim's replacement transaction begins; the writeback drains
// concurrently with the fill.
func (s *SharedL1) writebackToL2(at uint64, lineAddr uint32) {
	s.l2port.Acquire(at, s.cfg.L2Occ)
	if ln := s.l2.Probe(lineAddr); ln != nil {
		ln.State = cache.Modified
		return
	}
	// The L2 replaced the line already (it is not strictly inclusive of
	// dirty L1 data in this model); write it to memory.
	s.mem.Acquire(at, s.cfg.MemOcc)
}

// Access implements System. Stores retire through a per-CPU store
// buffer: the CPU sees one cycle while the write (and any miss it
// triggers) drains in the background.
func (s *SharedL1) Access(now uint64, cpu int, addr uint32, write bool) (Result, bool) {
	r, ok := s.access(now, cpu, addr, write)
	if ok {
		s.cfg.traceAccess(now, cpu, addr, write, r.Level, cyc.Lat(r.Done, now))
		if s.cfg.Check != nil {
			// One shared cache, no coherence: the time invariants are the
			// whole sanitizer surface here.
			s.cfg.Check.CheckAccessTime(now, r.Done, cpu, addr)
		}
	}
	return r, ok
}

// MSHROutstanding returns the number of in-flight misses at cycle now
// (the interval sampler's occupancy probe).
func (s *SharedL1) MSHROutstanding(now uint64) int { return s.mshr.Outstanding(now) }

// access follows the refusal rule of Result: the write buffer (stores)
// and the shared MSHR file (a reference the probe says would be a
// primary miss) are tested first, and only an accepted reference breaks
// the other CPUs' reservations, takes a bank slot and counts the lookup.
func (s *SharedL1) access(now uint64, cpu int, addr uint32, write bool) (Result, bool) {
	la := s.dcache.LineAddr(addr)
	if write {
		if s.wbufs[cpu].full(now) {
			s.cfg.traceRefusal(now, cpu, obsv.EvWBufFull)
			return Result{Done: s.wbufs[cpu].nextFree(), Level: LvlL2}, false
		}
	}
	// Refuse a guaranteed primary miss before consuming a bank slot, so
	// MSHR-full retry storms do not eat crossbar bandwidth. Nothing has
	// been touched yet, and the line cannot arrive before an entry frees:
	// only a primary miss fills, and every CPU's is refused until then.
	// This is the only MSHR check: nothing below reaps or allocates an
	// entry before the miss path, so a second one at the same now could
	// not answer differently.
	ln := s.dcache.Probe(addr)
	if ln == nil && s.mshr.Full(now) {
		return Result{Done: s.mshr.NextFree(), Level: LvlL1}, false
	}
	if write {
		s.res.clearOthers(cpu, addr)
	}
	start := now
	if s.cfg.SharedL1BankContention {
		start = s.dbanks.Acquire(s.dcache.BankOf(addr), now, 1)
	}
	ready := start + s.cfg.SharedL1HitLat

	finish := func(done uint64, lvl Level) (Result, bool) {
		if write {
			s.wbufs[cpu].add(done)
			return Result{Done: now + 1, Level: LvlL1}, true
		}
		return Result{Done: done, Level: lvl}, true
	}

	if s.dcache.AccessProbed(ln, addr, write).Hit {
		if write {
			ln.State = cache.Modified
		}
		// A tag hit on a line whose fill is still in flight (secondary
		// miss) completes when the fill does.
		if done, tag, merged := s.mshr.Lookup(now, la); merged {
			return finish(maxU64(ready, done), Level(tag))
		}
		return finish(ready, LvlL1)
	}

	// Primary miss; the probe above found an MSHR free for it.
	dataAt, lvl := s.l2Fetch(ready, la)
	st := cache.Exclusive
	if write {
		st = cache.Modified
	}
	victim := s.dcache.Fill(addr, st)
	if victim.Valid && victim.Dirty {
		s.writebackToL2(ready, victim.LineAddr)
	}
	s.mshr.Allocate(now, la, dataAt, uint8(lvl))
	return finish(dataAt, lvl)
}

// IFetch implements System. Instruction misses share the L2 port with
// data misses but bypass the shared D-cache.
func (s *SharedL1) IFetch(now uint64, cpu int, addr uint32) Result {
	ic := s.icaches[cpu]
	la := ic.LineAddr(addr)
	r := ic.Access(addr, false)
	if r.Hit {
		return Result{Done: now + 1, Level: LvlL1}
	}
	dataAt, lvl := s.l2Fetch(now+1, la)
	ic.Fill(addr, cache.Exclusive)
	s.cfg.traceIFetch(now, cpu, addr, lvl, cyc.Lat(dataAt, now))
	if s.cfg.Check != nil {
		s.cfg.Check.CheckAccessTime(now, dataAt, cpu, addr)
	}
	return Result{Done: dataAt, Level: lvl}
}

// Report implements System.
func (s *SharedL1) Report() Report {
	rep := Report{Name: s.Name(), L1D: s.dcache.Stats(), L2: s.l2.Stats()}
	for _, ic := range s.icaches {
		rep.L1I.Add(ic.Stats())
	}
	rep.Resources = []interconnect.ResourceStats{
		s.dbanks.Stats(),
		s.l2port.Stats(),
		s.mem.Stats(),
	}
	return rep
}
