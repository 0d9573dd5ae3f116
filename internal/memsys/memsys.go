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
	"fmt"

	"cmpsim/internal/cache"
	"cmpsim/internal/check"
	"cmpsim/internal/coherence"
	"cmpsim/internal/interconnect"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
)

// Note on cycle arithmetic: an accepted reference completes at or after
// its issue cycle (the sanitizer's CheckAccessTime checks it), and a
// fill at or after the cycle it was requested, so the compositions take
// latencies as plain differences.

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

// IFetchHitter is the optional capability of a System whose instruction
// caches are private to each CPU, as in all three architectures.
// IFetchHit reports whether cpu's own I-cache holds addr's line, and so
// whether IFetch(now, cpu, addr) would hit: return Result{Done: now + 1,
// Level: LvlL1} and touch nothing but that I-cache's LRU order and
// counters, which no other CPU's call reads or changes. It changes
// nothing itself. A CPU model may therefore make an IFetch it has been
// told hits out of step with the other CPUs' references; one that
// misses must wait its turn.
type IFetchHitter interface {
	IFetchHit(cpu int, addr uint32) bool
}

var (
	_ IFetchHitter = (*SharedL1)(nil)
	_ IFetchHitter = (*SharedL2)(nil)
	_ IFetchHitter = (*SharedMem)(nil)
)

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
	// instruction per tick: no quiescence skipping, no per-CPU wake
	// cycles, no Mipsy run-ahead, as before the event-driven
	// scheduler existed. Output is identical either way — that is the
	// scheduler's correctness bar, pinned by the skip regression tests —
	// so this is purely a debugging escape hatch and the reference side
	// of the skip-vs-no-skip diff.
	NoSkip bool

	// SimJobs has no effect: nothing reads it. It stays only because
	// the benchmark module (benchmark/run.go, frozen) assigns it, and
	// ROADMAP item 1(a) deletes both.
	SimJobs int
}

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

// Validate reports the first field no architecture can be built with, or
// nil. core.NewSystem calls it, so a bad design point is an error rather
// than a panic in cache.New or a CPU retrying a refusal forever (an
// empty write buffer or MSHR file would refuse every store or miss).
func (c Config) Validate() error {
	switch {
	case c.NumCPUs < 1 || c.NumCPUs > 16:
		return fmt.Errorf("memsys: NumCPUs %d outside 1..16 (the directory's sharer mask has 16 bits)", c.NumCPUs)
	case c.MSHRs < 1:
		return fmt.Errorf("memsys: MSHRs %d, want >= 1", c.MSHRs)
	case c.WriteBufDepth < 1:
		return fmt.Errorf("memsys: WriteBufDepth %d, want >= 1", c.WriteBufDepth)
	case c.SharedL1Banks == 0 || c.L2Banks == 0:
		return fmt.Errorf("memsys: SharedL1Banks %d, L2Banks %d: a banked cache needs a bank", c.SharedL1Banks, c.L2Banks)
	}
	for _, g := range []struct {
		fields string
		geom   cache.Config
	}{
		{"L1ISize, L1IAssoc", c.l1iGeom()},
		{"L1DSize, L1DAssoc", c.l1dGeom()},
		{"SharedL1Size, SharedL1Assoc, SharedL1Banks", c.sharedL1Geom()},
		{"L2Size, L2Assoc, L2Banks", c.sharedL2Geom()},
		{"PrivL2Size, L2Assoc", c.privL2Geom()},
	} {
		if err := g.geom.Validate(); err != nil {
			return fmt.Errorf("memsys: LineBytes, %s: %w", g.fields, err)
		}
	}
	return nil
}

// The geometry of each kind of cache the architectures build.
func (c Config) l1iGeom() cache.Config {
	return cache.Config{Name: "l1i", SizeBytes: c.L1ISize, LineBytes: c.LineBytes, Assoc: c.L1IAssoc}
}
func (c Config) l1dGeom() cache.Config {
	return cache.Config{Name: "l1d", SizeBytes: c.L1DSize, LineBytes: c.LineBytes, Assoc: c.L1DAssoc}
}
func (c Config) sharedL1Geom() cache.Config {
	return cache.Config{Name: "shared-l1d", SizeBytes: c.SharedL1Size, LineBytes: c.LineBytes, Assoc: c.SharedL1Assoc, Banks: c.SharedL1Banks}
}
func (c Config) l2Geom() cache.Config {
	return cache.Config{Name: "l2", SizeBytes: c.L2Size, LineBytes: c.LineBytes, Assoc: c.L2Assoc}
}
func (c Config) sharedL2Geom() cache.Config {
	return cache.Config{Name: "shared-l2", SizeBytes: c.L2Size, LineBytes: c.LineBytes, Assoc: c.L2Assoc, Banks: c.L2Banks}
}
func (c Config) privL2Geom() cache.Config {
	return cache.Config{Name: "priv-l2", SizeBytes: c.PrivL2Size, LineBytes: c.LineBytes, Assoc: c.L2Assoc}
}
