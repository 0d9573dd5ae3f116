// Package prof is the guest-level cycle-attribution profiler: it
// answers "which guest code and which data lines did the machine
// spend its cycles on", where stats.Breakdown only answers "on what
// category".
//
// It follows the obsv.Tracer discipline exactly. A *Profiler is a
// per-run attachment installed in memsys.Config.Prof; every hook site
// in the CPU models and the memory system is a single method call
// behind one pointer nil-check, so a nil profiler costs one compare
// per site and zero allocations (pinned by BenchmarkProfDisabled).
// Because the profiler accumulates into
// private maps owned by one machine, it is a runtime attachment in
// the runner's sense: jobs carrying one bypass the result cache.
//
// Two views are collected:
//
//   - PC profiling: the CPU models charge every retired instruction
//     and every stall cycle — split by the memsys.Level that caused
//     it — to the physical PC of the retiring or blocking
//     instruction. Physical PCs are unambiguous machine-wide (pmake
//     loads per-process copies at distinct physical bases), and the
//     asm symbol table (asm.Program.Symbols, collected by
//     core.Machine at load time) maps them back to function labels.
//
//   - Line profiling: the memory system and the coherence machinery
//     charge per-cache-line access/miss/invalidation/cache-to-cache
//     counters, the latter two keyed by writer→reader CPU pairs, plus
//     per-CPU word-offset touch masks. A line that ping-pongs between
//     CPUs touching disjoint words is flagged as a false-sharing
//     candidate — the paper's Section 4.2 MP3D story made checkable.
//
// Snapshot freezes the maps into a fully sorted, JSON-serializable
// Profile; rendering lives in report.go and cmd/simprof.
package prof

import "sort"

// NumLevels mirrors memsys.NumLevels: the stall-level axis
// (L1, L2, Mem, C2C). prof is imported by memsys, so the constant is
// duplicated here and pinned by a test in the memsys package.
const NumLevels = 4

// LevelNames names the stall levels in report columns.
var LevelNames = [NumLevels]string{"L1", "L2", "Mem", "C2C"}

// pcCounts accumulates cycle attribution for one physical PC.
type pcCounts struct {
	retired uint64            // instructions retired at this PC
	istall  [NumLevels]uint64 // fetch-stall cycles by servicing level
	dstall  [NumLevels]uint64 // data-stall cycles by servicing level
	pipe    uint64            // pipeline/window stalls charged to this PC
}

// lineCounts accumulates sharing behavior for one cache-line address.
type lineCounts struct {
	reads  uint64
	writes uint64
	misses uint64            // accesses serviced beyond the first level
	invals uint64            // coherence invalidations received
	c2c    uint64            // cache-to-cache transfers
	pairs  map[uint16]uint64 // writer<<8|reader → inval+c2c events
	touch  []uint32          // per-CPU word-offset mask (any access)
	wtouch []uint32          // per-CPU word-offset mask (writes)
}

// Profiler collects cycle attribution for one machine run. Build one
// with New, install it in memsys.Config.Prof before constructing the
// machine, and read the result from RunResult.Profile (the core
// snapshots it when the run completes). Not safe for concurrent use;
// like a Tracer or Metrics attachment it must be private to one job.
type Profiler struct {
	numCPUs   int
	lineShift uint32 // log2(lineBytes): addr>>lineShift = line index
	lineMask  uint32 // ^(lineBytes-1): addr&lineMask = line address
	pcs       map[uint32]*pcCounts
	lines     map[uint32]*lineCounts
}

// New returns an empty profiler for a machine with numCPUs processors
// and lineBytes-byte cache lines (both from memsys.Config).
func New(numCPUs int, lineBytes uint32) *Profiler {
	shift := uint32(0)
	for b := lineBytes; b > 1; b >>= 1 {
		shift++
	}
	return &Profiler{
		numCPUs:   numCPUs,
		lineShift: shift,
		lineMask:  ^(lineBytes - 1),
		pcs:       make(map[uint32]*pcCounts),
		lines:     make(map[uint32]*lineCounts),
	}
}

func (p *Profiler) pc(ppc uint32) *pcCounts {
	c := p.pcs[ppc]
	if c == nil {
		c = &pcCounts{}
		p.pcs[ppc] = c
	}
	return c
}

func (p *Profiler) line(addr uint32) *lineCounts {
	la := addr & p.lineMask
	c := p.lines[la]
	if c == nil {
		c = &lineCounts{
			pairs:  make(map[uint16]uint64),
			touch:  make([]uint32, p.numCPUs),
			wtouch: make([]uint32, p.numCPUs),
		}
		p.lines[la] = c
	}
	return c
}

// RetirePC charges one retired instruction to physical PC ppc. The
// CPU models call it wherever they count StallStats.Instructions.
func (p *Profiler) RetirePC(ppc uint32) {
	p.pc(ppc).retired++
}

// IStallPC charges cycles of fetch stall, serviced at level, to the
// physical PC the front end is blocked on.
func (p *Profiler) IStallPC(ppc uint32, level uint8, cycles uint64) {
	p.pc(ppc).istall[level] += cycles
}

// DStallPC charges cycles of data stall, serviced at level, to the
// physical PC of the blocking memory instruction.
func (p *Profiler) DStallPC(ppc uint32, level uint8, cycles uint64) {
	p.pc(ppc).dstall[level] += cycles
}

// PipeStallPC charges cycles of pipeline (non-memory) stall to the
// physical PC of the instruction at the head of the machine.
func (p *Profiler) PipeStallPC(ppc uint32, cycles uint64) {
	p.pc(ppc).pipe += cycles
}

// LineAccess records one completed data access by cpu to addr,
// serviced at level (the memsys.Level of the completion). Accesses
// serviced beyond the first level count as misses for the line.
func (p *Profiler) LineAccess(cpu int, addr uint32, write bool, level uint8) {
	c := p.line(addr)
	word := uint32(1) << ((addr >> 2) & ((1 << (p.lineShift - 2)) - 1))
	c.touch[cpu] |= word
	if write {
		c.writes++
		c.wtouch[cpu] |= word
	} else {
		c.reads++
	}
	if level > 0 {
		c.misses++
	}
}

// LineInval records a coherence invalidation of lineAddr in reader's
// cache caused by writer's store or upgrade.
func (p *Profiler) LineInval(writer, reader int, lineAddr uint32) {
	c := p.line(lineAddr)
	c.invals++
	c.pairs[pairKey(writer, reader)]++
}

// LineC2C records a cache-to-cache transfer of lineAddr supplied by
// the CPU that last held it (writer) to the requester (reader).
func (p *Profiler) LineC2C(writer, reader int, lineAddr uint32) {
	c := p.line(lineAddr)
	c.c2c++
	c.pairs[pairKey(writer, reader)]++
}

func pairKey(writer, reader int) uint16 {
	return uint16(writer)<<8 | uint16(reader)&0xff
}

// Symbol is one assembler label resolved to a physical address range
// [Start, End). Text symbols label code (functions, loop heads); data
// symbols label variables and arrays.
type Symbol struct {
	Name  string
	Start uint32
	End   uint32
	Text  bool
}

// PCEntry is the frozen attribution for one physical PC.
type PCEntry struct {
	PC      uint32
	Retired uint64
	IStall  [NumLevels]uint64
	DStall  [NumLevels]uint64
	Pipe    uint64
}

// Cycles returns the total cycles attributed to the PC: retired
// instructions (busy issue slots) plus every stall category.
func (e *PCEntry) Cycles() uint64 {
	n := e.Retired + e.Pipe
	for l := 0; l < NumLevels; l++ {
		n += e.IStall[l] + e.DStall[l]
	}
	return n
}

// Stalls returns only the stall cycles attributed to the PC.
func (e *PCEntry) Stalls() uint64 {
	n := e.Pipe
	for l := 0; l < NumLevels; l++ {
		n += e.IStall[l] + e.DStall[l]
	}
	return n
}

// Pair is a writer→reader CPU pair with its coherence-event count
// (invalidations plus cache-to-cache transfers).
type Pair struct {
	Writer int
	Reader int
	Count  uint64
}

// CPUTouch is one CPU's word-offset footprint on a line: bit i of a
// mask is set if the CPU touched word i of the line.
type CPUTouch struct {
	CPU       int
	ReadMask  uint32 // words touched by any access
	WriteMask uint32 // words touched by writes
}

// LineEntry is the frozen sharing record for one cache-line address.
type LineEntry struct {
	Addr   uint32
	Reads  uint64
	Writes uint64
	Misses uint64
	Invals uint64
	C2C    uint64
	Pairs  []Pair     `json:",omitempty"`
	Touch  []CPUTouch `json:",omitempty"`

	// FalseSharing marks a false-sharing candidate: the line ping-pongs
	// (coherence events > 0), at least two CPUs touch it, and some pair
	// of touching CPUs use disjoint word offsets.
	FalseSharing bool `json:",omitempty"`
}

// Traffic returns the line's coherence traffic (invals + C2C), the
// heatmap's ranking key.
func (e *LineEntry) Traffic() uint64 { return e.Invals + e.C2C }

// Profile is the frozen, serializable result of one profiled run.
// Every slice is fully sorted, so marshaling a Profile — and every
// renderer in report.go — is byte-deterministic.
type Profile struct {
	Workload  string `json:",omitempty"` // filled in by the driver
	Arch      string
	Model     string
	NumCPUs   int
	LineBytes uint32
	PCs       []PCEntry
	Lines     []LineEntry
	Symbols   []Symbol `json:",omitempty"`
}

// Snapshot freezes the profiler's accumulated state into a Profile.
// syms is the machine's physical-address symbol table (already
// biased); it is sorted into the profile for PC→function resolution.
func (p *Profiler) Snapshot(arch, model string, syms []Symbol) *Profile {
	pr := &Profile{
		Arch:      arch,
		Model:     model,
		NumCPUs:   p.numCPUs,
		LineBytes: uint32(1) << p.lineShift,
	}

	pcs := make([]uint32, 0, len(p.pcs))
	for pc := range p.pcs {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	pr.PCs = make([]PCEntry, 0, len(pcs))
	for _, pc := range pcs {
		c := p.pcs[pc]
		pr.PCs = append(pr.PCs, PCEntry{
			PC:      pc,
			Retired: c.retired,
			IStall:  c.istall,
			DStall:  c.dstall,
			Pipe:    c.pipe,
		})
	}

	las := make([]uint32, 0, len(p.lines))
	for la := range p.lines {
		las = append(las, la)
	}
	sort.Slice(las, func(i, j int) bool { return las[i] < las[j] })
	pr.Lines = make([]LineEntry, 0, len(las))
	for _, la := range las {
		c := p.lines[la]
		e := LineEntry{
			Addr:   la,
			Reads:  c.reads,
			Writes: c.writes,
			Misses: c.misses,
			Invals: c.invals,
			C2C:    c.c2c,
		}
		keys := make([]uint16, 0, len(c.pairs))
		for k := range c.pairs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			e.Pairs = append(e.Pairs, Pair{
				Writer: int(k >> 8),
				Reader: int(k & 0xff),
				Count:  c.pairs[k],
			})
		}
		for cpu := 0; cpu < p.numCPUs; cpu++ {
			if c.touch[cpu] != 0 {
				e.Touch = append(e.Touch, CPUTouch{
					CPU:       cpu,
					ReadMask:  c.touch[cpu],
					WriteMask: c.wtouch[cpu],
				})
			}
		}
		e.FalseSharing = falseSharing(&e)
		pr.Lines = append(pr.Lines, e)
	}

	pr.Symbols = append(pr.Symbols, syms...)
	sort.SliceStable(pr.Symbols, func(i, j int) bool {
		if pr.Symbols[i].Start != pr.Symbols[j].Start {
			return pr.Symbols[i].Start < pr.Symbols[j].Start
		}
		return pr.Symbols[i].Name < pr.Symbols[j].Name
	})
	return pr
}

// falseSharing reports whether a frozen line entry looks like false
// sharing: coherence traffic on the line, and at least one pair of
// touching CPUs whose word footprints are disjoint. True sharing —
// CPUs contending for the same word — is deliberately not flagged.
func falseSharing(e *LineEntry) bool {
	if e.Traffic() == 0 || len(e.Touch) < 2 {
		return false
	}
	for i := 0; i < len(e.Touch); i++ {
		for j := i + 1; j < len(e.Touch); j++ {
			if e.Touch[i].ReadMask&e.Touch[j].ReadMask == 0 {
				return true
			}
		}
	}
	return false
}
