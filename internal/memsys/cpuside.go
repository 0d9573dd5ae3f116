package memsys

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/obsv"
)

// cpuSide is what each CPU has to itself in all three architectures
// (Section 2): a private I-cache, a store buffer, an LL/SC reservation
// and the MSHRs its misses wait in. SharedL1, SharedL2 and SharedMem
// embed it and differ only below it: each supplies fetchLine, the line
// fetch an I-cache miss makes, and its own data path (Access).
type cpuSide struct {
	cfg Config

	icaches []*cache.Cache
	wbufs   []writeBuf
	// mshrs holds one MSHR file per CPU, or, in the shared-L1
	// architecture, the one file on the shared cache's miss path.
	mshrs []*cache.MSHRFile

	// LL/SC reservations: resAddr[cpu] is cpu's reserved line while
	// resValid[cpu] holds.
	lineMask uint32
	resAddr  []uint32
	resValid []bool

	// fetchLine services cpu's I-cache miss on line la, leaving the
	// I-cache at reqTime, from the level below; it returns the cycle the
	// data is ready and the level that supplied it.
	fetchLine func(reqTime uint64, cpu int, la uint32) (uint64, Level)
}

// newCPUSide builds the per-CPU half of cfg's machine. sharedMSHRs puts
// every CPU's misses in one file of MSHRs entries per CPU, not in a file
// of their own.
func newCPUSide(cfg Config, sharedMSHRs bool, fetchLine func(uint64, int, uint32) (uint64, Level)) cpuSide {
	n := cfg.NumCPUs
	c := cpuSide{
		cfg:       cfg,
		icaches:   make([]*cache.Cache, n),
		wbufs:     make([]writeBuf, n),
		mshrs:     make([]*cache.MSHRFile, n),
		lineMask:  ^(cfg.LineBytes - 1),
		resAddr:   make([]uint32, n),
		resValid:  make([]bool, n),
		fetchLine: fetchLine,
	}
	for i := 0; i < n; i++ {
		c.icaches[i] = cache.New(cfg.l1iGeom())
		// add never grows this array: it is only called when full()
		// said no.
		c.wbufs[i] = writeBuf{depth: cfg.WriteBufDepth, pending: make([]uint64, 0, cfg.WriteBufDepth)}
	}
	entries := cfg.MSHRs
	if sharedMSHRs {
		c.mshrs, entries = c.mshrs[:1], cfg.MSHRs*n
	}
	for i := range c.mshrs {
		c.mshrs[i] = cache.NewMSHRFile(entries)
		if cfg.Trace != nil {
			owner := i
			if sharedMSHRs {
				owner = -1 // the shared file is no one CPU's
			}
			c.mshrs[i].SetTracer(cfg.Trace, owner)
		}
	}
	return c
}

// LLReserve implements System. The reservations are read by every CPU's
// stores.
func (c *cpuSide) LLReserve(cpu int, addr uint32) {
	c.resAddr[cpu] = addr & c.lineMask
	c.resValid[cpu] = true
}

// SCCheck implements System.
func (c *cpuSide) SCCheck(cpu int, addr uint32) bool {
	ok := c.resValid[cpu] && c.resAddr[cpu] == addr&c.lineMask
	c.resValid[cpu] = false
	return ok
}

// ClearReservation implements System.
func (c *cpuSide) ClearReservation(cpu int) { c.resValid[cpu] = false }

// breakReservations breaks every other CPU's reservation on addr's line;
// every accepted store calls it.
func (c *cpuSide) breakReservations(cpu int, addr uint32) {
	la := addr & c.lineMask
	for i := range c.resValid {
		if i != cpu && c.resValid[i] && c.resAddr[i] == la {
			c.resValid[i] = false
		}
	}
}

// wbufFull is the refusal of a store that found cpu's write buffer full
// at now: traced, to be retried when the earliest store drains, and
// attributed to the L2 (port contention, as in the paper's Figure 10
// discussion).
func (c *cpuSide) wbufFull(now uint64, cpu int) (Result, bool) {
	if c.cfg.Trace != nil {
		c.cfg.Trace.Emit(obsv.Event{Cycle: now, Kind: obsv.EvWBufFull, CPU: int8(cpu)})
	}
	return Result{Done: c.wbufs[cpu].nextFree(), Level: LvlL2}, false
}

// finish ends cpu's accepted data reference, whose data is ready at done
// from level lvl: a store retires into the write buffer, which drains it
// at done, and the CPU sees one cycle; a load waits for the data.
func (c *cpuSide) finish(now uint64, cpu int, write bool, done uint64, lvl Level) (Result, bool) {
	if write {
		c.wbufs[cpu].add(done)
		return Result{Done: now + 1, Level: LvlL1}, true
	}
	return Result{Done: done, Level: lvl}, true
}

// IFetch implements System: a hit in cpu's own I-cache takes one cycle,
// a miss waits for the architecture's fetchLine. Only misses are traced:
// under the simple CPU model every cycle begins with an I-fetch, and the
// hits would swamp the trace.
func (c *cpuSide) IFetch(now uint64, cpu int, addr uint32) Result {
	ic := c.icaches[cpu]
	if ic.Access(addr, false).Hit {
		return Result{Done: now + 1, Level: LvlL1}
	}
	dataAt, lvl := c.fetchLine(now+1, cpu, ic.LineAddr(addr))
	ic.Fill(addr, cache.Exclusive)
	if c.cfg.Trace != nil {
		c.cfg.Trace.Emit(obsv.Event{
			Cycle: now, Addr: addr, Arg: uint32(dataAt - now),
			Kind: obsv.EvIFetch, CPU: int8(cpu), Level: uint8(lvl),
		})
	}
	if c.cfg.Check != nil {
		c.cfg.Check.CheckAccessTime(now, dataAt, cpu, addr)
	}
	return Result{Done: dataAt, Level: lvl}
}

// IFetchHit implements IFetchHitter.
func (c *cpuSide) IFetchHit(cpu int, addr uint32) bool { return c.icaches[cpu].Probe(addr) != nil }

// MSHROutstanding returns the in-flight misses summed over the MSHR
// files at cycle now (the interval sampler's occupancy probe).
func (c *cpuSide) MSHROutstanding(now uint64) int {
	n := 0
	for _, m := range c.mshrs {
		n += m.Outstanding(now)
	}
	return n
}

// report starts an architecture's Report: its name and the sum of the
// CPUs' I-caches.
func (c *cpuSide) report(name string) Report {
	rep := Report{Name: name}
	for _, ic := range c.icaches {
		rep.L1I.Add(ic.Stats())
	}
	return rep
}

// writeBuf models a per-CPU store buffer: the CPU retires a store in one
// cycle while the write (and any allocation fetch it triggers) drains in
// the background. A full buffer stalls further stores.
type writeBuf struct {
	depth   int
	pending []uint64 // completion cycles of in-flight stores
}

// full drops the stores drained by now and reports whether the rest
// fill the buffer.
func (w *writeBuf) full(now uint64) bool {
	p := w.pending[:0]
	for _, done := range w.pending {
		if done > now {
			// compacts into the reused backing array, never grows it
			p = append(p, done)
		}
	}
	w.pending = p
	return len(p) >= w.depth
}

// nextFree returns the cycle the earliest in-flight store drains: the
// first cycle at which a buffer that full(now) just found full is not.
// Only the owning CPU's accepted stores add entries, so the answer holds
// until its next one.
func (w *writeBuf) nextFree() uint64 {
	free := ^uint64(0)
	for _, done := range w.pending {
		if done < free {
			free = done
		}
	}
	return free
}

func (w *writeBuf) add(done uint64) {
	w.pending = append(w.pending, done) // appends into the depth-capacity array preallocated by newCPUSide
}
