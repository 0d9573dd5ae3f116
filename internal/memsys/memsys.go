// Package memsys composes the three memory-system architectures of the
// paper (Section 2): shared-L1 cache, shared-L2 cache, and conventional
// bus-based shared memory. Each composition wires caches (package
// cache), contended resources (package interconnect) and a coherence
// mechanism (package coherence) into a transaction-level timing model
// with the latencies and occupancies of Table 2.
//
// A CPU model drives a System through Access (data) and IFetch
// (instructions). Every call returns the cycle at which the reference
// completes and the memory-hierarchy level that serviced it, which the
// CPU model uses for stall attribution in the Figure 4-10 breakdowns.
package memsys

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/check"
	"cmpsim/internal/coherence"
	"cmpsim/internal/interconnect"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
)

// Note on cycle arithmetic: latency computations in the compositions go
// through cyc.Lat/cyc.Sub (saturating) so an out-of-order completion
// timestamp can never wrap a uint64 latency; the simlint cycleflow
// analyzer enforces this.

// Level identifies the deepest memory-hierarchy level involved in
// servicing a reference; the CPU models attribute stall cycles to it.
type Level uint8

const (
	LvlL1  Level = iota // serviced by the level-1 cache
	LvlL2               // L1 miss serviced by the level-2 cache
	LvlMem              // serviced by main memory
	LvlC2C              // serviced by a remote cache or a coherence action on the bus
	NumLevels
)

func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlMem:
		return "Mem"
	case LvlC2C:
		return "C2C"
	}
	return "?"
}

// Result reports the outcome of a memory reference. Done of an accepted
// reference is the cycle at which the data is available (a store is
// accepted into the write buffer at now+1). Done of a refused one is
// its retry cycle, and all three architectures refuse by one rule:
// probe (the write buffer for a store, then the L1 and the MSHR file
// for what would be a primary miss), refuse, and only then count the
// lookup, clear other CPUs' LL reservations or arbitrate for a bank,
// port or bus. A refused reference has therefore counted and changed
// nothing, and Done is the cycle the structure that refused it first
// has room (the earliest write-buffer drain or MSHR fill): unless the
// CPU has another reference accepted in between, a retry before Done is
// refused again and the retry at Done gets past that structure, so
// retrying every cycle and sleeping until Done are indistinguishable
// in timing and in Report().
type Result struct {
	Done  uint64
	Level Level
}

// System is one of the three architecture compositions.
type System interface {
	// Name returns the architecture's short name ("shared-l1", ...).
	Name() string

	// Access performs a data reference by cpu to physical address addr.
	// ok=false is a structural refusal (MSHRs or write buffer full): the
	// CPU retries, every cycle or from Result.Done on (see Result), and
	// attributes the stall to Result.Level.
	Access(now uint64, cpu int, addr uint32, write bool) (Result, bool)

	// IFetch fetches the instruction line containing addr for cpu.
	IFetch(now uint64, cpu int, addr uint32) Result

	// LLReserve registers a load-linked reservation for cpu on addr's
	// line. Reservations are broken by any other CPU's store to the line.
	LLReserve(cpu int, addr uint32)

	// SCCheck consumes cpu's reservation and reports whether a
	// store-conditional to addr may proceed.
	SCCheck(cpu int, addr uint32) bool

	// ClearReservation drops cpu's reservation (used by the guest kernel
	// on context switches).
	ClearReservation(cpu int)

	// Report returns the accumulated cache/coherence statistics.
	Report() Report
}

// Report aggregates an architecture's statistics for the figures.
type Report struct {
	Name      string
	L1I       cache.Stats // all CPUs' instruction caches combined
	L1D       cache.Stats // the shared D-cache, or all private D-caches combined
	L2        cache.Stats // the shared L2, or all private L2s combined
	Resources []interconnect.ResourceStats
	Snoop     *coherence.SnoopStats // shared-memory architecture only
	Dir       *coherence.DirStats   // shared-L2 architecture only
}

// Config carries every architecture parameter. DefaultConfig returns the
// paper's values; experiments override individual fields.
type Config struct {
	NumCPUs   int
	LineBytes uint32

	// Private per-CPU L1 caches (all architectures use private I-caches;
	// shared-L2 and shared-memory also use private D-caches).
	L1ISize  uint32
	L1IAssoc uint32
	L1DSize  uint32
	L1DAssoc uint32

	// Shared L1 D-cache (shared-L1 architecture).
	SharedL1Size           uint32
	SharedL1Assoc          uint32
	SharedL1Banks          uint32
	SharedL1HitLat         uint64 // 1 under Mipsy (paper's optimistic model), 3 under MXS
	SharedL1BankContention bool   // modelled only under MXS, as in Section 4.4

	// L2. Size/Assoc describe the shared L2 of the shared-L1 and
	// shared-L2 architectures; PrivL2Size is each CPU's private L2 in the
	// shared-memory architecture ("its own separate bank of L2 cache").
	L2Size     uint32
	L2Assoc    uint32
	L2Banks    uint32 // shared-L2 architecture: 4 independent banks
	PrivL2Size uint32

	// Table 2 latencies and occupancies (cycles).
	L2Lat       uint64 // uniprocessor-style L2: shared-L1 and shared-memory
	L2Occ       uint64
	SharedL2Lat uint64 // crossbar-attached L2 of the shared-L2 architecture
	SharedL2Occ uint64
	MemLat      uint64
	MemOcc      uint64
	C2CLat      uint64 // cache-to-cache transfer (> memory latency, Table 2)
	C2COcc      uint64
	UpgLat      uint64 // bus upgrade (invalidate-only) latency

	// Structural limits.
	MSHRs         int    // outstanding misses per non-blocking cache port
	WriteBufDepth int    // write-through store buffer entries per CPU (shared-L2)
	WTWriteOcc    uint64 // L2 bank occupancy of one write-through word

	// SharedData classifies addresses for the shared-L2 architecture's
	// L1 policy (Section 2.3: "the L1 cache uses a write-through policy
	// for shared data"): shared addresses are write-through with
	// directory invalidations; private addresses are write-back. nil
	// means everything is treated as shared (the conservative default).
	SharedData func(addr uint32) bool

	// Trace, when non-nil, receives a cycle-accurate event stream from
	// every instrumented component: data accesses and I-fetch misses
	// here, plus resource grants, MSHR traffic and coherence actions from
	// the sub-components the constructors wire it into. Leave nil for
	// normal runs — the disabled fast path is a single pointer check.
	Trace obsv.Tracer

	// Metrics, when non-nil, accumulates interval samples and latency
	// histograms. Carried by pointer so that Config copies made by the
	// compositions all feed one collector.
	Metrics *obsv.Metrics

	// Check, when non-nil, enables the runtime sanitizer: every completed
	// transaction is validated against the coherence and cycle-flow
	// invariants (package check), and a violation panics with the recent
	// event trail. Tee the checker into Trace so the trail is populated.
	// Opt-in (cmpsim -sanitize): it probes every cache on every access.
	Check *check.Checker

	// Prof, when non-nil, enables the guest-level cycle-attribution
	// profiler (package prof): completed data accesses are charged to
	// their cache line here, coherence invalidations and C2C transfers
	// by the snoop/directory machinery, and retired instructions and
	// stall cycles by the CPU models. Carried by pointer so every
	// Config copy feeds one collector; like Trace, a non-nil profiler
	// makes a runner job uncacheable.
	Prof *prof.Profiler

	// NoSkip makes the core loop tick every CPU every cycle, one
	// instruction per tick (cmpsim -no-skip): no quiescence skipping, no
	// per-CPU wake cycles, no Mipsy run-ahead, as before the event-driven
	// scheduler existed. Output is identical either way — that is the
	// scheduler's correctness bar, pinned by the skip regression tests —
	// so this is purely a debugging escape hatch and the reference side
	// of the skip-vs-no-skip diff.
	NoSkip bool

	// SimJobs shards one simulation's per-CPU tick work across up to
	// this many host goroutines (cmpsim -sim-jobs). Shared-resource
	// accesses are granted in exact serial rotation order by the core
	// scheduler's per-tick gate, so output is byte-identical for any
	// value — the parallel-identity regression tests pin that — and the
	// field is therefore excluded from the runner's cache fingerprint
	// (runner.Fingerprint skips it by name): a cached serial result is
	// the parallel result. 0 or 1 selects the untouched serial loop.
	//
	// output-neutral by contract (parallel-identity tests; serial grant order reproduced exactly)
	SimJobs int

	// SimWindow is the scheduling-window grid of the core cycle loop, in
	// cycles: cross-CPU interrupt raises performed from tick phase (a
	// trap handler running under a CPU's tick, as opposed to an event
	// callback) are buffered and delivered at the next cycle that is a
	// multiple of SimWindow, in both the serial and the parallel
	// scheduler, and the parallel scheduler's barriers land on the same
	// grid. It is part of the delivery contract — a different grid may
	// legally produce different simulated timing — so unlike SimJobs it
	// stays in the cache fingerprint. 0 means DefaultSimWindow. (Today's
	// guest kernel raises interrupts only from timer events, which are
	// delivered immediately in both modes, so the grid is latent.)
	SimWindow uint64
}

// DefaultSimWindow is the scheduling-window grid used when
// Config.SimWindow is zero: long enough that window barriers are
// negligible against thousands of simulated cycles of work, short
// enough that a buffered tick-phase interrupt is never deferred by more
// than a few microseconds of simulated time.
const DefaultSimWindow = 4096

// traceAccess reports one completed data access to the tracer and the
// latency histogram.
func (c *Config) traceAccess(now uint64, cpu int, addr uint32, write bool, lvl Level, lat uint64) {
	if c.Trace != nil {
		kind := obsv.EvLoad
		if write {
			kind = obsv.EvStore
		}
		c.Trace.Emit(obsv.Event{
			Cycle: now, Addr: addr, Arg: uint32(lat),
			Kind: kind, CPU: int8(cpu), Level: uint8(lvl),
		})
	}
	if c.Metrics != nil {
		c.Metrics.ObserveAccess(uint8(lvl), lat)
	}
	if c.Prof != nil {
		c.Prof.LineAccess(cpu, addr, write, uint8(lvl))
	}
}

// traceIFetch reports an instruction-line fetch that missed the L1
// I-cache (hits are omitted to keep traces tractable — under the simple
// CPU model every cycle begins with an I-fetch).
func (c *Config) traceIFetch(now uint64, cpu int, addr uint32, lvl Level, lat uint64) {
	if c.Trace != nil && lvl != LvlL1 {
		c.Trace.Emit(obsv.Event{
			Cycle: now, Addr: addr, Arg: uint32(lat),
			Kind: obsv.EvIFetch, CPU: int8(cpu), Level: uint8(lvl),
		})
	}
}

// traceRefusal reports a structural refusal (write buffer full; MSHR-full
// refusals are emitted by the MSHR file itself).
func (c *Config) traceRefusal(now uint64, cpu int, kind obsv.EventKind) {
	if c.Trace != nil {
		c.Trace.Emit(obsv.Event{Cycle: now, Kind: kind, CPU: int8(cpu)})
	}
}

// DefaultConfig returns the paper's parameters (Sections 2.1-2.4,
// Table 2): 16KB 2-way private L1s, 64KB 2-way 4-banked shared L1, 2MB
// L2 (direct-mapped commodity SRAM), 512KB private L2 per CPU in the
// shared-memory system, 32-byte lines, and the Table 2 timings.
func DefaultConfig() Config {
	return Config{
		NumCPUs:   4,
		LineBytes: 32,

		L1ISize:  16 << 10,
		L1IAssoc: 2,
		L1DSize:  16 << 10,
		L1DAssoc: 2,

		SharedL1Size:   64 << 10,
		SharedL1Assoc:  2,
		SharedL1Banks:  4,
		SharedL1HitLat: 1,

		L2Size:     2 << 20,
		L2Assoc:    1,
		L2Banks:    4,
		PrivL2Size: 512 << 10,

		L2Lat:       10,
		L2Occ:       2,
		SharedL2Lat: 14,
		SharedL2Occ: 4,
		MemLat:      50,
		MemOcc:      6,
		C2CLat:      55,
		C2COcc:      6,
		UpgLat:      10,

		MSHRs:         4,
		WriteBufDepth: 8,
		WTWriteOcc:    1,
	}
}

// MXS returns cfg adjusted for the detailed CPU model: the shared-L1
// architecture pays its true 3-cycle hit time and bank contention
// (Section 4.4).
func (c Config) MXS() Config {
	c.SharedL1HitLat = 3
	c.SharedL1BankContention = true
	return c
}

// writeBuf models a per-CPU store buffer: the CPU retires a store in one
// cycle while the write (and any allocation fetch it triggers) drains in
// the background. A full buffer stalls further stores.
type writeBuf struct {
	depth   int
	pending []uint64 // completion cycles of in-flight stores
}

func (w *writeBuf) reap(now uint64) {
	p := w.pending[:0]
	for _, done := range w.pending {
		if done > now {
			// compacts into the reused backing array, never grows it
			p = append(p, done)
		}
	}
	w.pending = p
}

func (w *writeBuf) full(now uint64) bool {
	w.reap(now)
	return len(w.pending) >= w.depth
}

// nextFree returns the cycle the earliest in-flight store drains: the
// first cycle at which a buffer that full(now) just found full is not
// (never, for a buffer of depth zero). Only the owning CPU's accepted
// stores add entries, so the answer holds until its next one.
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
	// The backing array is preallocated to depth by newWriteBufs and
	// add is only called when full() said no; the append never grows.
	w.pending = append(w.pending, done) // appends into the depth-capacity array preallocated by newWriteBufs
}

func newWriteBufs(n, depth int) []writeBuf {
	bufs := make([]writeBuf, n)
	for i := range bufs {
		bufs[i].depth = depth
		bufs[i].pending = make([]uint64, 0, depth)
	}
	return bufs
}

// reservations tracks LL/SC line reservations per CPU.
type reservations struct {
	lineMask uint32
	addr     []uint32
	valid    []bool
}

func newReservations(numCPUs int, lineBytes uint32) reservations {
	return reservations{
		lineMask: ^(lineBytes - 1),
		addr:     make([]uint32, numCPUs),
		valid:    make([]bool, numCPUs),
	}
}

// set records cpu's LL reservation. The reservation table is itself an
// inter-CPU arbitration mechanism (LL/SC): its methods are the declared
// serialization points the parallel tick must order at window
// boundaries, exactly like bus acquisition.
func (r *reservations) set(cpu int, addr uint32) {
	r.addr[cpu] = addr & r.lineMask
	r.valid[cpu] = true
}

// clearOthers breaks every other CPU's reservation on addr's line; call
// on every store.
func (r *reservations) clearOthers(cpu int, addr uint32) {
	la := addr & r.lineMask
	for i := range r.valid {
		if i != cpu && r.valid[i] && r.addr[i] == la {
			r.valid[i] = false
		}
	}
}

// checkAndClear consumes cpu's reservation, reporting whether it was
// still valid for addr's line.
func (r *reservations) checkAndClear(cpu int, addr uint32) bool {
	ok := r.valid[cpu] && r.addr[cpu] == addr&r.lineMask
	r.valid[cpu] = false
	return ok
}

func (r *reservations) clear(cpu int) { r.valid[cpu] = false }

// newICaches builds the private instruction caches common to all three
// architectures.
func newICaches(cfg Config) []*cache.Cache {
	ics := make([]*cache.Cache, cfg.NumCPUs)
	for i := range ics {
		ics[i] = cache.New(cache.Config{
			Name:      "l1i",
			SizeBytes: cfg.L1ISize,
			LineBytes: cfg.LineBytes,
			Assoc:     cfg.L1IAssoc,
		})
	}
	return ics
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
