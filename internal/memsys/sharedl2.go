package memsys

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
	"cmpsim/internal/cyc"
	"cmpsim/internal/interconnect"
	"cmpsim/internal/obsv"
)

// SharedL2 is the shared-secondary-cache multiprocessor (Section 2.3):
// four CPUs with private single-cycle write-through L1 data caches share
// a 4-banked write-back L2 through a crossbar chip. The narrower 64-bit
// L2 datapath raises the L2 latency to 14 cycles and line occupancy to
// 4 cycles. L1 coherence uses a per-L2-line directory: a write-through
// by one CPU invalidates every other sharer's L1 copy.
//
// Stores retire into a per-CPU write buffer; the CPU sees a single-cycle
// store unless the buffer is full, but each write-through occupies an L2
// bank, which is what produces the L2 port contention the paper reports
// for Ocean and the multiprogramming workload.
type SharedL2 struct {
	cfg Config
	res reservations

	icaches []*cache.Cache
	dcaches []*cache.Cache
	mshrs   []*cache.MSHRFile

	dir     *coherence.Directory
	l2      *cache.Cache
	l2banks interconnect.Banks
	mem     interconnect.Resource

	wbufs []writeBuf
}

// NewSharedL2 builds the shared-L2 architecture from cfg.
func NewSharedL2(cfg Config) *SharedL2 {
	dcaches := make([]*cache.Cache, cfg.NumCPUs)
	mshrs := make([]*cache.MSHRFile, cfg.NumCPUs)
	for i := range dcaches {
		dcaches[i] = cache.New(cache.Config{
			Name:      "l1d",
			SizeBytes: cfg.L1DSize,
			LineBytes: cfg.LineBytes,
			Assoc:     cfg.L1DAssoc,
		})
		mshrs[i] = cache.NewMSHRFile(cfg.MSHRs)
	}
	s := &SharedL2{
		cfg:     cfg,
		res:     newReservations(cfg.NumCPUs, cfg.LineBytes),
		icaches: newICaches(cfg),
		dcaches: dcaches,
		mshrs:   mshrs,
		dir:     coherence.NewDirectory(dcaches),
		l2: cache.New(cache.Config{
			Name:      "shared-l2",
			SizeBytes: cfg.L2Size,
			LineBytes: cfg.LineBytes,
			Assoc:     cfg.L2Assoc,
			Banks:     cfg.L2Banks,
		}),
		l2banks: interconnect.NewBanks("l2-bank", int(cfg.L2Banks)),
		mem:     interconnect.Resource{Name: "memory"},
		wbufs:   newWriteBufs(cfg.NumCPUs, cfg.WriteBufDepth),
	}
	if cfg.Trace != nil {
		s.l2banks.Instrument(cfg.Trace, obsv.ResL2Bank)
		s.mem.Instrument(cfg.Trace, obsv.ResMem, 0)
		for i, m := range s.mshrs {
			m.SetTracer(cfg.Trace, i)
		}
		s.dir.SetTracer(cfg.Trace)
	}
	if cfg.Prof != nil {
		s.dir.SetProfiler(cfg.Prof)
	}
	return s
}

// Name implements System.
func (s *SharedL2) Name() string { return "shared-l2" }

// SetSharedData installs the workload's shared-vs-private address
// classification (core.Machine forwards it here).
func (s *SharedL2) SetSharedData(f func(addr uint32) bool) { s.cfg.SharedData = f }

func (s *SharedL2) isShared(addr uint32) bool {
	if s.cfg.SharedData == nil {
		return true
	}
	return s.cfg.SharedData(addr)
}

// LLReserve implements System.
func (s *SharedL2) LLReserve(cpu int, addr uint32) { s.res.set(cpu, addr) }

// SCCheck implements System.
func (s *SharedL2) SCCheck(cpu int, addr uint32) bool { return s.res.checkAndClear(cpu, addr) }

// ClearReservation implements System.
func (s *SharedL2) ClearReservation(cpu int) { s.res.clear(cpu) }

// l2Fetch services an L1 (or I-cache) line miss from the shared L2,
// going to memory below it on an L2 miss. Returns data-ready cycle and
// supplying level.
func (s *SharedL2) l2Fetch(reqTime uint64, lineAddr uint32) (uint64, Level) {
	start := s.l2banks.Acquire(s.l2.BankOf(lineAddr), reqTime, s.cfg.SharedL2Occ)
	r := s.l2.Access(lineAddr, false)
	if r.Hit {
		return start + s.cfg.SharedL2Lat, LvlL2
	}
	mstart := s.mem.Acquire(start+s.cfg.SharedL2Lat, s.cfg.MemOcc)
	dataAt := mstart + s.cfg.MemLat
	victim := s.l2.Fill(lineAddr, cache.Exclusive)
	// The victim writeback drains concurrently with the fill.
	s.evictL2Victim(victim, mstart+s.cfg.MemOcc)
	return dataAt, LvlMem
}

// evictL2Victim enforces inclusion over the private L1s and writes dirty
// victims back to memory.
func (s *SharedL2) evictL2Victim(v cache.Victim, at uint64) {
	if !v.Valid {
		return
	}
	s.dir.L2Evict(at, v.LineAddr)
	if v.Dirty {
		s.mem.Acquire(at, s.cfg.MemOcc)
	}
}

// Access implements System.
func (s *SharedL2) Access(now uint64, cpu int, addr uint32, write bool) (Result, bool) {
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
// completion time, then — for shared-classified lines — that the
// directory's sharer bitmask exactly matches which L1s hold the line
// and that inclusion against the shared L2 holds.
func (s *SharedL2) sanityCheck(now uint64, cpu int, addr uint32, r Result) {
	chk := s.cfg.Check
	chk.CheckAccessTime(now, r.Done, cpu, addr)
	if !s.isShared(addr) {
		return // private lines are write-back and untracked by design
	}
	la := s.dcaches[cpu].LineAddr(addr)
	var present uint16
	for i, d := range s.dcaches {
		if d.Probe(la) != nil {
			present |= 1 << uint(i)
		}
	}
	chk.CheckDirectory(now, la, s.dir.Sharers(la), present, s.l2.Probe(la) != nil)
}

// MSHROutstanding returns the in-flight misses summed over the CPUs'
// MSHR files at cycle now.
func (s *SharedL2) MSHROutstanding(now uint64) int {
	n := 0
	for _, m := range s.mshrs {
		n += m.Outstanding(now)
	}
	return n
}

// access follows the refusal rule of Result in both halves: load and
// store test the write buffer (stores) and the MSHR file (a load or a
// private store the L1 probe says would be a primary miss) first, and
// only an accepted reference counts the L1 lookup, breaks the other
// CPUs' reservations, writes the directory and takes an L2 bank.
func (s *SharedL2) access(now uint64, cpu int, addr uint32, write bool) (Result, bool) {
	if write {
		return s.store(now, cpu, addr)
	}
	return s.load(now, cpu, addr)
}

func (s *SharedL2) load(now uint64, cpu int, addr uint32) (Result, bool) {
	d := s.dcaches[cpu]
	la := d.LineAddr(addr)
	// A line enters this L1 only through this CPU's own accepted
	// references, so until the next of those no retry before an MSHR
	// frees can find it.
	ln := d.Probe(addr)
	if ln == nil && s.mshrs[cpu].Full(now) {
		return Result{Done: s.mshrs[cpu].NextFree(), Level: LvlL1}, false
	}
	if d.AccessProbed(ln, addr, false).Hit {
		if done, tag, merged := s.mshrs[cpu].Lookup(now, la); merged {
			return Result{Done: maxU64(now+1, done), Level: Level(tag)}, true
		}
		return Result{Done: now + 1, Level: LvlL1}, true
	}
	dataAt, lvl := s.l2Fetch(now+1, la)
	st := cache.Shared
	if !s.isShared(addr) {
		st = cache.Exclusive // private data may be written back silently
	}
	victim := d.Fill(addr, st)
	s.handleL1Victim(cpu, victim, now+1)
	if s.isShared(addr) {
		// Only shared (write-through) lines carry directory state; a
		// private line's only consumer is its owner, so the directory —
		// and with it L2-eviction inclusion — does not track it.
		s.dir.AddSharer(la, cpu)
	}
	s.mshrs[cpu].Allocate(now, la, dataAt, uint8(lvl))
	return Result{Done: dataAt, Level: lvl}, true
}

// handleL1Victim unregisters an L1 victim from the directory and, for
// dirty (write-back, private-data) victims, drains the line to the L2.
func (s *SharedL2) handleL1Victim(cpu int, v cache.Victim, at uint64) {
	if !v.Valid {
		return
	}
	s.dir.DropSharer(v.LineAddr, cpu)
	if !v.Dirty {
		return
	}
	s.l2banks.Acquire(s.l2.BankOf(v.LineAddr), at, s.cfg.SharedL2Occ)
	if ln := s.l2.Probe(v.LineAddr); ln != nil {
		ln.State = cache.Modified
		return
	}
	// The L2 already replaced the line; push it to memory.
	s.mem.Acquire(at, s.cfg.MemOcc)
}

// store implements the write-through, write-allocate policy: every
// other sharer is invalidated via the directory, the word is written
// through to the L2 bank, and on an L1 miss the line is also fetched
// into the writer's L1. The CPU sees a 1-cycle store (it drains from a
// write buffer) unless the buffer is full.
func (s *SharedL2) store(now uint64, cpu int, addr uint32) (Result, bool) {
	if s.wbufs[cpu].full(now) {
		// Stall until a buffer slot drains; attribute to the L2 (port
		// contention), as in the paper's Figure 10 discussion.
		s.cfg.traceRefusal(now, cpu, obsv.EvWBufFull)
		return Result{Done: s.wbufs[cpu].nextFree(), Level: LvlL2}, false
	}
	if !s.isShared(addr) {
		return s.storePrivate(now, cpu, addr)
	}
	d := s.dcaches[cpu]
	la := d.LineAddr(addr)
	s.res.clearOthers(cpu, addr)
	hit := d.Access(addr, true).Hit
	s.dir.Write(now, la, cpu)

	start := s.l2banks.Acquire(s.l2.BankOf(addr), now+1, s.cfg.WTWriteOcc)
	done := start + s.cfg.WTWriteOcc
	r := s.l2.Access(la, true)
	if r.Hit {
		s.l2.Probe(la).State = cache.Modified
	} else {
		// Allocate in the write-back L2: fetch the rest of the line from
		// memory, then merge the write (read-modify-write fill).
		mstart := s.mem.Acquire(start+s.cfg.SharedL2Lat, s.cfg.MemOcc)
		done = mstart + s.cfg.MemLat
		victim := s.l2.Fill(la, cache.Modified)
		s.evictL2Victim(victim, mstart+s.cfg.MemOcc)
	}
	if !hit {
		// Write-allocate: the store's line transfer into L1 rides the
		// same read-modify-write; account the line occupancy adjacent to
		// the word write so it never blocks earlier requests.
		s.l2banks.Acquire(s.l2.BankOf(addr), start+s.cfg.WTWriteOcc, s.cfg.SharedL2Occ)
		victim := d.Fill(addr, cache.Shared)
		if victim.Valid {
			s.dir.DropSharer(victim.LineAddr, cpu)
		}
		s.dir.AddSharer(la, cpu)
	}
	s.wbufs[cpu].add(done)
	return Result{Done: now + 1, Level: LvlL1}, true
}

// storePrivate handles a store to private (write-back) data: an L1 hit
// dirties the line with no L2 traffic at all; a miss write-allocates
// from the L2 behind an MSHR (a write-through store takes none) while
// the CPU continues past its store buffer, and is refused like a load,
// before anything is cleared or counted, when there is none free.
func (s *SharedL2) storePrivate(now uint64, cpu int, addr uint32) (Result, bool) {
	d := s.dcaches[cpu]
	la := d.LineAddr(addr)
	ln := d.Probe(addr)
	if ln == nil && s.mshrs[cpu].Full(now) {
		return Result{Done: s.mshrs[cpu].NextFree(), Level: LvlL1}, false
	}
	s.res.clearOthers(cpu, addr)
	if d.AccessProbed(ln, addr, true).Hit {
		ln.State = cache.Modified
		return Result{Done: now + 1, Level: LvlL1}, true
	}
	dataAt, lvl := s.l2Fetch(now+1, la)
	victim := d.Fill(addr, cache.Modified)
	s.handleL1Victim(cpu, victim, now+1)
	s.mshrs[cpu].Allocate(now, la, dataAt, uint8(lvl))
	s.wbufs[cpu].add(dataAt)
	return Result{Done: now + 1, Level: LvlL1}, true
}

// IFetch implements System.
func (s *SharedL2) IFetch(now uint64, cpu int, addr uint32) Result {
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
func (s *SharedL2) Report() Report {
	rep := Report{Name: s.Name(), L2: s.l2.Stats()}
	for _, ic := range s.icaches {
		rep.L1I.Add(ic.Stats())
	}
	for _, d := range s.dcaches {
		rep.L1D.Add(d.Stats())
	}
	ds := s.dir.Stats()
	rep.Dir = &ds
	rep.Resources = []interconnect.ResourceStats{
		s.l2banks.Stats(),
		s.mem.Stats(),
	}
	return rep
}
