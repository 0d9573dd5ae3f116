// Package core is the top-level simulator: it composes a memory-system
// architecture, a set of CPU models, the loaded guest programs and the
// trap handler into a Machine, runs the cycle loop to completion, and
// produces the statistics that the experiment harness turns into the
// paper's figures.
package core

import (
	"fmt"
	"io"
	"sort"

	"cmpsim/internal/asm"
	"cmpsim/internal/check"
	"cmpsim/internal/cpu"
	"cmpsim/internal/cpu/mipsy"
	"cmpsim/internal/event"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
)

// Arch identifies one of the three architecture compositions.
type Arch string

const (
	SharedL1  Arch = "shared-l1"
	SharedL2  Arch = "shared-l2"
	SharedMem Arch = "shared-mem"
)

// Arches lists the three architectures in the paper's presentation order
// (the shared-memory machine is the normalization baseline).
func Arches() []Arch { return []Arch{SharedL1, SharedL2, SharedMem} }

// NewSystem builds the memory system for an architecture.
func NewSystem(a Arch, cfg memsys.Config) (memsys.System, error) {
	switch a {
	case SharedL1:
		return memsys.NewSharedL1(cfg), nil
	case SharedL2:
		return memsys.NewSharedL2(cfg), nil
	case SharedMem:
		return memsys.NewSharedMem(cfg), nil
	}
	return nil, fmt.Errorf("core: unknown architecture %q", a)
}

// Core is a CPU model instance driven by the cycle loop.
type Core interface {
	// Tick does the core's work at cycle now and returns its wake cycle:
	// the earliest cycle after now at which this core might have work,
	// assuming no external input first (cpu.NoWork if, and only if, it
	// is now halted). A core that takes the machine's run-ahead bound
	// (cpu.InterruptSource) may also do, inside the same call, the work
	// of the cycles from now to that bound that involves nothing but
	// itself; its wake cycle is then the first cycle whose work it has
	// not done. The cycle loop does not tick the core again before
	// that cycle unless its interrupt line goes live, so the hint obeys
	// the same asymmetric contract as NextWork — too small only costs
	// no-op ticks, too large would change simulation output. With the
	// line already live at the tick the hint must account for it. Cycles
	// the core sleeps through are reported through SkipCycles (see
	// cycleSkipper) before its next tick.
	Tick(now uint64) uint64
	Done() bool
	Stats() cpu.StallStats
	Context() *cpu.Context
	FlushFetchBuffer()

	// NextWork returns the earliest cycle at or after now at which Tick
	// could make progress or have any observable side effect, assuming
	// no external state changes first; cpu.NoWork if the core is halted.
	// The quiescence-skipping scheduler jumps the cycle loop to the
	// minimum NextWork across cores (bounded by pending events, sampler
	// boundaries and interrupts), so the contract is asymmetric: a value
	// that is too small merely costs no-op ticks, while a value that is
	// too large would change simulation output. Models return now+1
	// whenever they cannot cheaply prove a longer quiescent window.
	NextWork(now uint64) uint64
}

// cycleSkipper is implemented by CPU models whose per-cycle accounting
// must be backfilled across the cycles they were not ticked. MXS
// charges one stall cycle of blame per zero-graduation cycle; a cycle
// slept through still happened architecturally, so the scheduler
// reports the range [from, to) right before the core's next tick (and
// at the end of a RunWindow call), while the state that decides the
// blame is still the state the core went to sleep in.
type cycleSkipper interface {
	SkipCycles(from, to uint64)
}

// codeEntry is one loaded program's text, predecoded at Register: the
// one copy both CPU models fetch from and the tools disassemble.
type codeEntry struct {
	base   uint32
	end    uint32
	uops   []cpu.Uop
	labels map[uint32][]string // physical address → text labels, for Dump
}

// CodeRegistry resolves physical addresses to decoded instructions over
// all loaded programs. It is immutable once the programs are loaded, so
// all CPUs share it safely: each core keeps the region its last fetch
// hit (TextAt) and comes back only when its PC leaves that region.
type CodeRegistry struct {
	entries []codeEntry
}

// Register adds p's text, relocated by physBias, to the registry.
func (r *CodeRegistry) Register(p *asm.Program, physBias uint32) {
	e := codeEntry{
		base:   physBias + p.TextBase,
		end:    physBias + p.TextEnd(),
		uops:   cpu.PredecodeText(p.Insts),
		labels: make(map[uint32][]string),
	}
	for _, s := range p.Symbols() {
		if s.Text {
			e.labels[physBias+s.Start] = append(e.labels[physBias+s.Start], s.Name)
		}
	}
	r.entries = append(r.entries, e)
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].base < r.entries[j].base })
}

// Dump writes a disassembly listing of every registered program region
// to w: one line per instruction with its physical address, annotated
// with the assembler's function and branch-target labels.
func (r *CodeRegistry) Dump(w io.Writer) {
	for _, e := range r.entries {
		fmt.Fprintf(w, "; region %#08x..%#08x (%d instructions)\n", e.base, e.end, len(e.uops))
		for i := range e.uops {
			addr := e.base + uint32(4*i)
			for _, l := range e.labels[addr] {
				fmt.Fprintf(w, "%s:\n", l)
			}
			fmt.Fprintf(w, "%08x:  %s\n", addr, e.uops[i].Inst)
		}
	}
}

// TextAt implements cpu.CodeSource: the predecoded text of the program
// region containing paddr and the physical address of its first
// instruction. The registry stays read-only after loading; the
// per-fetch memo is the region each core holds on to.
func (r *CodeRegistry) TextAt(paddr uint32) (text []cpu.Uop, base uint32, ok bool) {
	for i := range r.entries {
		e := &r.entries[i]
		if paddr >= e.base && paddr < e.end {
			return e.uops, e.base, true
		}
	}
	return nil, 0, false
}

// InstAt returns the instruction at paddr, for tools that walk the
// loaded text one address at a time.
func (r *CodeRegistry) InstAt(paddr uint32) (isa.Inst, bool) {
	text, base, ok := r.TextAt(paddr)
	if !ok {
		return isa.Inst{}, false
	}
	return text[(paddr-base)/4].Inst, true
}

// CPUModel selects the CPU simulator.
type CPUModel string

const (
	ModelMipsy CPUModel = "mipsy"
	ModelMXS   CPUModel = "mxs"
)

// Machine is a fully composed simulated system.
type Machine struct {
	Arch  Arch
	Cfg   memsys.Config
	Img   *mem.Image
	Sys   memsys.System
	Code  *CodeRegistry
	Trap  cpu.TrapHandler
	CPUs  []Core
	Model CPUModel

	// Events is the machine's discrete-event calendar; events fire at
	// the top of their cycle, before any CPU ticks. The guest kernel
	// uses it for preemption timers. Schedule from outside the run or
	// from an event callback only: a CPU ticked earlier in the same
	// cycle may already have run ahead to the earliest event it could
	// see, so RunWindow fails when a trap handler, under some CPU's
	// tick, has scheduled an event below the run-ahead bound.
	Events event.Queue

	// irq holds the per-CPU external interrupt lines behind the
	// window-boundary arbitration protocol (see irqLines): event-phase
	// raises land on the live lines immediately, tick-phase raises are
	// buffered and merged onto the live lines at the next SimWindow grid
	// boundary, and each CPU reads and acks only its own live line
	// within a window. Both schedulers follow the same protocol, so
	// delivery cycles are identical serial and parallel.
	irq irqLines

	// inTick distinguishes the two scheduler phases for RaiseIRQ: false
	// while event callbacks run (coordinator phase — raises deliver
	// immediately, as the guest kernel's preemption timers always have),
	// true while CPUs tick (raises buffer until the next grid boundary).
	inTick bool

	// par is the parallel tick scheduler, built only when the
	// configuration asks for sharding (SimJobs > 1 on a multi-CPU
	// machine); nil means the serial loop runs unconditionally.
	par *parSched

	// skipped counts the cycles the quiescence-skipping scheduler
	// fast-forwarded over instead of ticking (a pure speed metric:
	// simulated time is identical with skipping disabled).
	skipped uint64

	// The serial loop's per-CPU schedule, valid inside one RunWindow
	// call and sized once. wakeAt[k] is the cycle CPU k is next ticked
	// at: the hint its last Tick returned, pulled down to the present
	// when its interrupt line goes live, cpu.NoWork once it has halted.
	// tickedTo[k] is the first cycle CPU k has not been accounted for
	// (one past its last tick); the cycles from there to its next tick
	// are backfilled through skippers[k], CPUs[k]'s cycleSkipper side
	// (nil when the model has none).
	wakeAt   []uint64
	tickedTo []uint64
	skippers []cycleSkipper

	// runAhead says the machine's cores consume the run-ahead bound
	// (Mipsy does, MXS does not): the serial loop then fixes aheadTo on
	// every executed cycle, before its ticks (see RunAheadBound).
	// Otherwise, and outside the serial loop, aheadTo stays zero, which
	// allows no run-ahead at all.
	runAhead bool
	aheadTo  uint64

	// syms is the machine-wide physical-address symbol table, collected
	// from every loaded program (relocated by its load bias) so a
	// profile snapshot can resolve physical PCs and data addresses back
	// to assembler labels.
	syms []prof.Symbol

	// NewCore builds a CPU for the machine; set by the model selection in
	// NewMachine and used by AddContext.
	newCore func(id int, ctx *cpu.Context) Core
}

// irqLines is the per-CPU external-interrupt state under the
// window-boundary arbitration protocol the parallel tick requires and
// the serial loop reproduces:
//
//   - live are the delivered lines. Within a scheduling window each
//     line is read (PendingInterrupt) and cleared (AckInterrupt) only
//     by its own CPU, and written by the coordinator phase (event
//     callbacks, grid-boundary merges) only between windows — so no two
//     goroutines ever touch a live line concurrently.
//   - pending buffers raises made from tick phase (a trap handler
//     running under some CPU's tick). Tick-phase code runs under the
//     scheduler's serial-order shared-state grant, so pending is
//     mutated exclusively; merge promotes it to live at the next
//     SimWindow grid boundary, identically in both schedulers.
//
// The arbitration points are the methods below, declared as such for
// the sharedmut analyzer: the classification is an enforced invariant
// of the parallel scheduler, not documentation.
type irqLines struct {
	live    []bool
	pending []bool
	npend   int // live count of buffered raises; bounds the quiescence skip to the next merge

	// wake tells the serial loop that a line went live (raise from
	// coordinator phase, merge) and stays set while a running CPU has
	// not yet taken its interrupt, so the loop looks at the lines only
	// then. ack never touches it: under the parallel scheduler CPUs ack
	// concurrently, and that scheduler does not read it.
	wake bool
}

// raise asserts a line: immediately in coordinator phase, buffered to
// the next grid boundary from tick phase.
func (q *irqLines) raise(cpuID int, tickPhase bool) {
	if tickPhase {
		if !q.pending[cpuID] {
			q.pending[cpuID] = true
			q.npend++
		}
		return
	}
	q.live[cpuID] = true
	q.wake = true
}

// ack clears a CPU's own live line (interrupt taken).
func (q *irqLines) ack(cpuID int) { q.live[cpuID] = false }

// merge promotes buffered tick-phase raises onto the live lines; called
// at SimWindow grid boundaries by both schedulers.
func (q *irqLines) merge() {
	if q.npend == 0 {
		return
	}
	for i, p := range q.pending {
		if p {
			q.live[i] = true
			q.pending[i] = false
		}
	}
	q.npend = 0
	q.wake = true
}

// wakeLive makes every running CPU whose line is live due at cyc: a CPU
// asleep past cyc went to sleep before the line rose, so its wake cycle
// does not account for it, and a CPU that has seen the line is ticked on
// every executed cycle until it takes the interrupt, as it is in the
// tick-everything reference. Called by the serial loop between the
// event phase and the tick pass, while wake is set.
func (q *irqLines) wakeLive(wakeAt []uint64, cyc uint64) {
	q.wake = false
	for k := range wakeAt[:min(len(wakeAt), len(q.live))] {
		if q.live[k] && wakeAt[k] != cpu.NoWork {
			q.wake = true
			if wakeAt[k] > cyc {
				wakeAt[k] = cyc
			}
		}
	}
}

// RaiseIRQ asserts the external interrupt line of a CPU; the CPU takes
// the interrupt at its next instruction boundary (Mipsy) or after
// draining its pipeline (MXS). Raised from an event callback (the
// kernel's preemption timers) the line is live the same cycle; raised
// from tick phase it is buffered and delivered at the next SimWindow
// grid boundary, in both the serial and the parallel scheduler.
func (m *Machine) RaiseIRQ(cpuID int) { m.irq.raise(cpuID, m.inTick) }

// PendingInterrupt implements cpu.InterruptSource.
func (m *Machine) PendingInterrupt(cpuID int) bool { return m.irq.live[cpuID] }

// AckInterrupt implements cpu.InterruptSource.
func (m *Machine) AckInterrupt(cpuID int) { m.irq.ack(cpuID) }

// RunAheadBound implements cpu.InterruptSource: below this cycle no
// event fires (so no event-phase RaiseIRQ, no kernel timer), no
// buffered raise is merged, no sample is taken and RunWindow does not
// return, which are all the ways anything outside a CPU reaches it.
func (m *Machine) RunAheadBound() uint64 { return m.aheadTo }

// interruptible is implemented by CPU models that poll an external
// interrupt line.
type interruptible interface {
	SetInterruptSource(cpu.InterruptSource)
}

// NewMachine builds a machine with the given architecture, memory-system
// configuration, CPU model and physical memory size. Contexts are added
// with AddContext; programs with LoadProgram.
func NewMachine(a Arch, model CPUModel, cfg memsys.Config, memBytes uint32) (*Machine, error) {
	if model == ModelMXS {
		cfg = cfg.MXS()
	}
	sys, err := NewSystem(a, cfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Arch:  a,
		Cfg:   cfg,
		Img:   mem.NewImage(memBytes),
		Sys:   sys,
		Code:  &CodeRegistry{},
		Trap:  cpu.NopTrap{},
		Model: model,
		irq: irqLines{
			live:    make([]bool, cfg.NumCPUs),
			pending: make([]bool, cfg.NumCPUs),
		},
	}
	if cfg.SimJobs > 1 && cfg.NumCPUs > 1 {
		m.par = newParSched(m, cfg.SimJobs)
	}
	switch model {
	case ModelMipsy:
		m.runAhead = true
		m.newCore = func(id int, ctx *cpu.Context) Core {
			c := mipsy.New(id, ctx, m.gatedSys(id), m.Code, m.gatedTrap(id), m.Img, cfg.LineBytes)
			if cfg.Prof != nil {
				c.SetProfiler(cfg.Prof)
			}
			return c
		}
	case ModelMXS:
		if newMXSCore == nil {
			return nil, fmt.Errorf("core: MXS model not linked")
		}
		m.newCore = func(id int, ctx *cpu.Context) Core {
			return newMXSCore(id, ctx, m, cfg)
		}
	default:
		return nil, fmt.Errorf("core: unknown CPU model %q", model)
	}
	return m, nil
}

// newMXSCore is set by the mxs glue file; separated so the core package
// compiles while the detailed model is plugged in.
var newMXSCore func(id int, ctx *cpu.Context, m *Machine, cfg memsys.Config) Core

// SetTrapHandler installs the guest kernel's trap handler. Must be
// called before AddContext so the CPUs capture it.
func (m *Machine) SetTrapHandler(t cpu.TrapHandler) { m.Trap = t }

// sharedDataSetter is implemented by memory systems with a per-region
// L1 write policy (the shared-L2 architecture).
type sharedDataSetter interface {
	SetSharedData(func(addr uint32) bool)
}

// SetSharedData declares which physical addresses hold shared data (the
// rest is thread-private). Architectures without a per-region policy
// ignore it.
func (m *Machine) SetSharedData(f func(addr uint32) bool) {
	if s, ok := m.Sys.(sharedDataSetter); ok {
		s.SetSharedData(f)
	}
}

// LoadProgram writes p into physical memory at physBias and registers
// its text for instruction fetch.
func (m *Machine) LoadProgram(p *asm.Program, physBias uint32) {
	p.Load(m.Img, physBias)
	m.Code.Register(p, physBias)
	m.addSymbols(p, physBias, true)
}

// LoadText loads and registers only p's text at physBias — for programs
// whose text is shared by several processes while each has a private
// copy of the data section (loaded with p.LoadDataAt).
func (m *Machine) LoadText(p *asm.Program, physBias uint32) {
	p.LoadText(m.Img, physBias)
	m.Code.Register(p, physBias)
	m.addSymbols(p, physBias, false)
}

// addSymbols merges p's symbol table, relocated by physBias, into the
// machine-wide table. Data symbols are skipped when the data section
// was not loaded at physBias (LoadText: each process places its data
// elsewhere, so the biased addresses would be wrong).
func (m *Machine) addSymbols(p *asm.Program, physBias uint32, withData bool) {
	for _, s := range p.Symbols() {
		if !s.Text && !withData {
			continue
		}
		m.syms = append(m.syms, prof.Symbol{
			Name:  s.Name,
			Start: physBias + s.Start,
			End:   physBias + s.End,
			Text:  s.Text,
		})
	}
	// Ordering observability metadata (prof.Symbol) at program-load
	// time, before the first tick; the data never reaches simulation.
	sort.SliceStable(m.syms, func(i, j int) bool {
		if m.syms[i].Start != m.syms[j].Start { //simlint:allow neutral — load-time symbol-table ordering
			return m.syms[i].Start < m.syms[j].Start
		}
		return m.syms[i].Name < m.syms[j].Name //simlint:allow neutral — load-time symbol-table ordering
	})
}

// AddContext creates a CPU (with the machine's model) running ctx.
func (m *Machine) AddContext(ctx *cpu.Context) Core {
	c := m.newCore(len(m.CPUs), ctx)
	if i, ok := c.(interruptible); ok {
		i.SetInterruptSource(m)
	}
	m.CPUs = append(m.CPUs, c)
	return c
}

// RunResult summarizes a completed simulation.
type RunResult struct {
	Arch      Arch
	Model     CPUModel
	Cycles    uint64
	PerCPU    []cpu.StallStats
	MemReport memsys.Report
	Metrics   *obsv.Metrics // interval time-series, when sampling was enabled
	Profile   *prof.Profile `json:",omitempty"` // cycle attribution, when profiling was enabled
}

// Instructions returns total instructions executed across all CPUs.
func (r *RunResult) Instructions() uint64 {
	var t uint64
	for _, s := range r.PerCPU {
		t += s.Instructions
	}
	return t
}

// IPC returns aggregate instructions per cycle across all CPUs.
func (r *RunResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions()) / float64(r.Cycles)
}

// RunWindow advances the machine from cycle start for at most n cycles.
// It returns the first cycle not executed, whether every CPU has halted,
// and any guest fault. CPU service order rotates each cycle so no
// processor gets a standing arbitration advantage.
//
// An executed cycle ticks only the CPUs that are due (wakeAt[k] <= cyc),
// in rotation order; a CPU asleep past it is exactly a CPU whose tick
// would have been a no-op, because its wake cycle is its own proof that
// nothing happens before then and the one cross-CPU input, its interrupt
// line, pulls the wake cycle down (irqLines.wakeLive). The loop then
// advances to the earliest wake cycle: the next cycle in the common
// case, through jumpTarget when every CPU sleeps past it.
//
// On a machine whose cores run ahead (Machine.runAhead), every executed
// cycle first fixes the run-ahead bound its ticks may work up to:
// horizon, with the grid term unconditional because a raise buffered by
// one CPU's tick must find the CPUs ticked before it no further than the
// boundary it is merged at. An event scheduled from tick phase below the
// bound would find them past it, and is returned as an error.
//
// Config.NoSkip clamps every hint and the bound to the next cycle and so
// ticks everything, every cycle, one instruction per tick: the reference
// the identity tests compare against. The instruments that see the order
// of guest events across CPUs (orderedInstruments) clamp the bound too.
func (m *Machine) RunWindow(start, n uint64) (next uint64, halted bool, err error) {
	if len(m.CPUs) == 0 {
		return start, false, fmt.Errorf("core: machine has no CPUs")
	}
	if m.parActive() {
		return m.runParallel(start, n)
	}
	cpus := len(m.CPUs)
	mets := m.Cfg.Metrics
	noSkip := m.Cfg.NoSkip
	grid := m.gridSize()
	end := start + n
	cyc := start

	// Every running CPU is due at the window's first cycle: hints are
	// not carried across calls, so whatever happened to the machine in
	// between (a restored checkpoint, a swapped core) is seen at once.
	// Done is asked here only; from now on a halt is Tick returning
	// cpu.NoWork.
	if len(m.wakeAt) != cpus {
		m.wakeAt = make([]uint64, cpus)
		m.tickedTo = make([]uint64, cpus)
		m.skippers = make([]cycleSkipper, cpus)
	}
	cores, wakeAt, tickedTo, skippers := m.CPUs, m.wakeAt, m.tickedTo, m.skippers
	// wake is the earliest wake cycle over all CPUs as of the last tick
	// pass; cpu.NoWork means every CPU has halted.
	wake := uint64(cpu.NoWork)
	for k, c := range cores {
		skippers[k], _ = c.(cycleSkipper)
		tickedTo[k] = start
		wakeAt[k] = cpu.NoWork
		if !c.Done() {
			wakeAt[k] = start
			wake = start
		}
	}
	// Jumps cross a grid boundary only while nothing is buffered
	// (jumpTarget stops at the boundary otherwise), so a merge that runs
	// late, at the first executed cycle past its boundary, is an empty one.
	nextGrid := start
	if start%grid != 0 {
		nextGrid = gridNext(start, grid)
	}
	// Rotate in uint64 so multi-billion-cycle runs can't skew the
	// arbitration order through a narrowing conversion on 32-bit ints.
	off := int(cyc % uint64(cpus))
	ahead, oneInst := m.runAhead, noSkip || m.orderedInstruments()
	var tickErr error
	for cyc < end {
		if cyc >= nextGrid {
			m.irq.merge()
			nextGrid = gridNext(cyc, grid)
		}
		m.Events.RunUntil(cyc)
		if m.irq.wake {
			m.irq.wakeLive(wakeAt, cyc)
		}
		if ahead {
			m.aheadTo = cyc + 1
			if !oneInst {
				m.aheadTo = m.horizon(cyc, end, nextGrid, mets)
			}
		}
		alive := wake != cpu.NoWork // a sleeping CPU counts
		if alive {
			m.inTick = true
			wake = cpu.NoWork
			k := off
			for i := 0; i < cpus; i++ {
				w := wakeAt[k]
				if w <= cyc {
					if t := tickedTo[k]; t < cyc && skippers[k] != nil {
						skippers[k].SkipCycles(t, cyc)
					}
					w = cores[k].Tick(cyc)
					if noSkip && w != cpu.NoWork {
						w = cyc + 1
					}
					wakeAt[k] = w
					tickedTo[k] = cyc + 1
				}
				if w < wake {
					wake = w
				}
				if k++; k == cpus {
					k = 0
				}
			}
			m.inTick = false
			if ahead {
				if ev, ok := m.Events.NextCycle(); ok && ev < m.aheadTo {
					tickErr = fmt.Errorf("core: event scheduled from tick phase at cycle %d for cycle %d, below the run-ahead bound %d", cyc, ev, m.aheadTo)
					break
				}
			}
		}
		if mets != nil && mets.Due(cyc) {
			mets.Record(m.probe(cyc))
		}
		if !alive {
			break
		}
		// When the last CPU has just halted the next cycle still
		// executes, so its events, its sample and the !alive break land
		// where they do without skipping.
		step := cyc + 1
		if wake > step && wake != cpu.NoWork && step < end {
			step = m.jumpTarget(cyc, end, nextGrid, mets)
		}
		if step == cyc+1 {
			if off++; off == cpus {
				off = 0
			}
		} else {
			off = int(step % uint64(cpus))
		}
		cyc = step
	}
	// The cycles a still-running CPU slept through at the end of the
	// window are charged now: the next call starts from a clean slate.
	for k, t := range tickedTo {
		if t < cyc && wakeAt[k] != cpu.NoWork && skippers[k] != nil {
			skippers[k].SkipCycles(t, cyc)
		}
	}
	m.aheadTo = 0
	if tickErr != nil {
		return cyc, false, tickErr
	}
	for _, c := range m.CPUs {
		if f := c.Context().Fault; f != "" {
			return cyc, false, fmt.Errorf("core: cpu fault: %s", f)
		}
	}
	allHalted := true
	for _, c := range m.CPUs {
		if !c.Done() {
			allHalted = false
			break
		}
	}
	return cyc, allHalted, nil
}

// jumpTarget is the slow path of the cycle loop, entered only when the
// wake cycle of every running CPU is past cyc+1. It verifies that
// against each CPU's NextWork proof and returns the cycle the loop
// should execute next: cyc+1 if any proof, a live interrupt line or the
// horizon says so, otherwise the earliest cycle at which any of them
// next has work. A proof earlier than the CPU's wake cycle replaces it,
// so the CPU is ticked when the jump lands. The bound is recomputed after
// every executed cycle, so an event that schedules another event (or
// raises an interrupt) always re-bounds the next jump; nothing scheduled
// from inside the jumped cycles can exist, because nothing executes in
// them.
func (m *Machine) jumpTarget(cyc, end, nextGrid uint64, mets *obsv.Metrics) uint64 {
	step := cyc + 1
	target := uint64(cpu.NoWork)
	for i, c := range m.CPUs {
		if m.wakeAt[i] == cpu.NoWork {
			continue
		}
		// A pending interrupt means the kernel wants this CPU's
		// attention; deliver on the per-cycle path. (Hand-assembled
		// machines have no lines.)
		if i < len(m.irq.live) && m.irq.live[i] {
			return step
		}
		w := c.NextWork(cyc)
		if w <= step {
			m.wakeAt[i] = step
			return step
		}
		if w < m.wakeAt[i] {
			m.wakeAt[i] = w
		}
		if w < target {
			target = w
		}
	}
	// Buffered tick-phase raises deliver at the next grid boundary; the
	// jump must not pass the merge. With none buffered the merge is an
	// empty one and the boundary is no bound.
	grid := uint64(cpu.NoWork)
	if m.irq.npend > 0 {
		grid = nextGrid
	}
	target = min(target, m.horizon(cyc, end, grid, mets))
	if target <= step {
		return step
	}
	m.skipped += target - step
	return target
}

// horizon returns the earliest cycle after cyc at which something other
// than a CPU's own progress needs the loop: the window's end, the next
// grid boundary the caller must stop at (cpu.NoWork for none), the next
// event and the sampler's next due cycle. It is the one list of non-CPU
// bounds, shared by the quiescence jump, which must execute that cycle,
// and the run-ahead bound, below which a CPU is on its own.
func (m *Machine) horizon(cyc, end, grid uint64, mets *obsv.Metrics) uint64 {
	h := min(end, grid)
	if ev, ok := m.Events.NextCycle(); ok && ev < h {
		h = ev
	}
	if mets != nil {
		// The sampler's next due cycle bounds the jump and the run-ahead
		// so interval samples land on schedule, over CPUs that are where
		// the sample's cycle says. This is the tree's one sanctioned
		// obs→sim dataflow: it changes only how the loop advances time,
		// never what any cycle computes, and the output-identity tests
		// pin byte-equal results with and without sampling attached.
		//simlint:allow neutral — skip bound only; output byte-identical (see output-identity tests)
		due := mets.NextDue()
		if due < h {
			h = due
		}
	}
	return max(h, cyc+1)
}

// SkippedCycles returns how many cycles the quiescence-skipping
// scheduler jumped over instead of ticking, across all RunWindow calls.
func (m *Machine) SkippedCycles() uint64 { return m.skipped }

// Run executes the cycle loop until every CPU halts, any context
// faults, or maxCycles elapses.
func (m *Machine) Run(maxCycles uint64) (*RunResult, error) {
	cyc, halted, err := m.RunWindow(0, maxCycles)
	if err != nil {
		return nil, err
	}
	if !halted {
		return nil, fmt.Errorf("core: simulation exceeded %d cycles", maxCycles)
	}
	return m.Result(cyc), nil
}

// Result assembles the run statistics at the given completion cycle.
// When sampling is enabled, the sampler's final partial interval is
// flushed at the run's last cycle so short runs still report samples and
// the interval totals reconcile with the aggregate report.
func (m *Machine) Result(cycles uint64) *RunResult {
	res := &RunResult{
		Arch:      m.Arch,
		Model:     m.Model,
		Cycles:    cycles,
		MemReport: m.Sys.Report(),
	}
	for _, c := range m.CPUs {
		res.PerCPU = append(res.PerCPU, c.Stats())
	}
	if mets := m.Cfg.Metrics; mets != nil {
		mets.Flush(m.probe(cycles))
		res.Metrics = mets
	}
	if pf := m.Cfg.Prof; pf != nil {
		res.Profile = pf.Snapshot(string(m.Arch), string(m.Model), m.syms)
	}
	if chk := m.Cfg.Check; chk != nil {
		// MSHR leak check, after the metrics flush so the probe above saw
		// the true outstanding count: entries may legitimately complete
		// after the last CPU halts, so probe far past the end — anything
		// still in flight at final+DrainSlack was leaked, not late.
		if mp, ok := m.Sys.(mshrProber); ok {
			chk.CheckDrain(cycles, mp.MSHROutstanding(cycles+check.DrainSlack))
		}
	}
	return res
}

// mshrProber is implemented by memory systems that can report their
// instantaneous outstanding-miss count (all three compositions do).
type mshrProber interface {
	MSHROutstanding(now uint64) int
}

// probe snapshots the machine's cumulative counters for the interval
// sampler.
func (m *Machine) probe(cycle uint64) obsv.Probe {
	rep := m.Sys.Report()
	p := obsv.Probe{
		Cycle:   cycle,
		L1DAcc:  rep.L1D.Accesses(),
		L1DMiss: rep.L1D.Misses(),
		L2Acc:   rep.L2.Accesses(),
		L2Miss:  rep.L2.Misses(),
	}
	for _, c := range m.CPUs {
		p.PerCPUInsts = append(p.PerCPUInsts, c.Stats().Instructions)
	}
	for _, r := range rep.Resources {
		p.Resources = append(p.Resources, obsv.ResProbe{
			Name:     r.Name,
			Acquires: r.Acquires,
			Wait:     r.WaitCycles,
			Busy:     r.BusyCycles,
		})
	}
	if mp, ok := m.Sys.(mshrProber); ok {
		p.MSHRInFlight = mp.MSHROutstanding(cycle)
	}
	return p
}
