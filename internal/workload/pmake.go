package workload

import (
	"fmt"
	"math/rand"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/kernel"
	"cmpsim/internal/mem"
)

// Pmake reproduces the multiprogramming and OS workload (Section 3.2.3):
// the compile phase of the Modified Andrew Benchmark run under a
// parallel make — two makes of up to four jobs each, giving eight
// gcc-like processes in separate address spaces, time-shared over the
// four CPUs by the guest kernel. Each process has a large instruction
// working set (its text exceeds the 16 KB I-caches, like gcc's long code
// paths) and a small data working set, and traps into the kernel for
// file reads — so a significant fraction of execution is kernel time on
// shared kernel data, which is what lets the shared-L1 architecture
// stay competitive in Figure 10 despite running unrelated processes.
type Pmake struct {
	Procs   int // compile processes (default 8 = 2 makes x 4 jobs)
	Funcs   int // distinct "compiler phases" = instruction footprint knob
	Passes  int // files compiled per process (Andrew: 17)
	Slots   int // data words a function touches per call
	Quantum int // preemption quantum in cycles; <= 0 disables the timer
	//
	// The paper-faithful default is cooperative scheduling only: the
	// processes yield after each compiled file, and a realistic 1996
	// quantum (~10 ms = 2M cycles) would rarely fire within the run.
	// Setting a small positive quantum turns on genuine timer preemption
	// through the guest kern_switch path.

	prog  *asm.Program
	specs []pmakeFunc
	k     *kernel.Kernel
	ref   []uint32 // expected checksum per process
}

// PmakeParams configures Pmake; zero fields take defaults. Quantum < 0
// disables timer preemption (purely cooperative scheduling).
type PmakeParams struct {
	Procs, Funcs, Passes, Quantum int
}

// NewPmake builds the workload; zero params mean the default scale.
func NewPmake(p PmakeParams) *Pmake {
	w := &Pmake{Procs: 8, Funcs: 96, Passes: 17, Slots: 10, Quantum: -1}
	if p.Procs > 0 {
		w.Procs = p.Procs
	}
	if p.Funcs > 0 {
		w.Funcs = p.Funcs
	}
	if p.Passes > 0 {
		w.Passes = p.Passes
	}
	if p.Quantum != 0 {
		w.Quantum = p.Quantum
	}
	return w
}

func init() { register("pmake", func() Workload { return NewPmake(PmakeParams{}) }) }

// Per-process virtual layout: a text segment shared by all processes
// (the OS shares the gcc binary's text pages) and a private data/stack
// segment. Private segments are staggered by 8 KiB modulo the L1 set
// space so independent processes do not land on identical cache sets.
const (
	pmakeTextV    = 0x0000_1000 // text virtual base
	pmakeTextLim  = 0x0002_0000 // 128 KiB text window
	pmakeDataV    = 0x0002_0000 // data virtual base (== text limit)
	pmakeStackV   = 0x0002_f000 // stack top (phys offset 60 KiB)
	pmakeUserLim  = 0x0003_0000 // end of user virtual space
	pmakeWork     = 1024        // private work-region words per process
	pmakeTextPhys = 0x0010_0000 // the one shared text image
	pmakeDataBase = 0x0020_0000 // first process's private segment
	pmakeDataStep = 0x0001_2000 // 72 KiB stride (64 KiB segment + 8 KiB stagger)
)

func pmakeDataPhys(i int) uint32 { return pmakeDataBase + uint32(i)*pmakeDataStep }

// pmakeFunc is one synthetic "compiler phase": a distinct basic block of
// constants so every function contributes unique text to the
// instruction working set. Its data effect is mirrored in Go.
type pmakeFunc struct {
	offs   []uint32 // word offsets in the work region
	muls   []uint32
	adds   []uint32
	shifts []uint8
}

func (w *Pmake) genSpecs() []pmakeFunc {
	rng := rand.New(rand.NewSource(42))
	specs := make([]pmakeFunc, w.Funcs)
	for f := range specs {
		s := pmakeFunc{
			offs:   make([]uint32, w.Slots),
			muls:   make([]uint32, w.Slots),
			adds:   make([]uint32, w.Slots),
			shifts: make([]uint8, w.Slots),
		}
		for k := 0; k < w.Slots; k++ {
			s.offs[k] = uint32(rng.Intn(pmakeWork))
			s.muls[k] = uint32(rng.Intn(1<<30) | 1)
			s.adds[k] = uint32(rng.Intn(1 << 30))
			s.shifts[k] = uint8(1 + rng.Intn(15))
		}
		specs[f] = s
	}
	return specs
}

// pmakeRepeats is each phase's internal iteration count: the phase loops
// over its slots several times, like a compiler pass iterating over a
// function's IR, which gives gcc-like instruction locality (the paper's
// workload spends ~10% of time on I-stall, not 50%).
const pmakeRepeats = 3

// apply mirrors one function call on a process's work region and returns
// the accumulator the guest leaves in RV.
func (s *pmakeFunc) apply(work []uint32) uint32 {
	var acc uint32
	for r := 0; r < pmakeRepeats; r++ {
		for k := range s.offs {
			x := work[s.offs[k]]
			x = x*s.muls[k] + s.adds[k]
			x ^= x >> s.shifts[k]
			work[s.offs[k]] = x
			acc += x
		}
	}
	return acc
}

// reference computes each process's expected checksum.
func (w *Pmake) reference() []uint32 {
	out := make([]uint32, w.Procs)
	for p := 0; p < w.Procs; p++ {
		work := make([]uint32, pmakeWork)
		var chk uint32
		for pass := 0; pass < w.Passes; pass++ {
			for f := 0; f < w.Funcs; f++ {
				g := (f*7 + pass*13) % w.Funcs
				chk += w.specs[g].apply(work)
				if f&3 == 0 {
					idx := kernel.HashBuf(uint32(pass), uint32(f))
					chk += kernel.BufDataWord(idx, 0)
				}
			}
		}
		out[p] = chk
	}
	return out
}

// Name implements Workload.
func (w *Pmake) Name() string { return "pmake" }

// Description implements Workload.
func (w *Pmake) Description() string {
	return "multiprogramming + OS: 8 gcc-like processes time-shared by the guest kernel"
}

// MemBytes implements Workload.
func (w *Pmake) MemBytes() uint32 { return MemBytes }

// Threads implements Workload.
func (w *Pmake) Threads() int { return w.Procs }

// buildUserProgram emits the gcc-like compile process.
func (w *Pmake) buildUserProgram() (*asm.Program, error) {
	b := asm.NewBuilder()

	// main: R20 = proc id, R21 = pass, R22 = passes, R23 = checksum,
	// R16 = call counter, R17 = Funcs.
	b.Label("start")
	b.MOVE(asm.R20, asm.A0)
	b.LI(asm.R21, 0)
	b.LI(asm.R22, int32(w.Passes))
	b.LI(asm.R23, 0)
	b.Label("pm_pass")
	b.LI(asm.R16, 0)
	b.LI(asm.R17, int32(w.Funcs))
	b.Label("pm_call")
	// g = (f*7 + pass*13) % Funcs
	b.LI(asm.R8, 7)
	b.MUL(asm.R9, asm.R16, asm.R8)
	b.LI(asm.R8, 13)
	b.MUL(asm.R10, asm.R21, asm.R8)
	b.ADD(asm.R9, asm.R9, asm.R10)
	b.REM(asm.R9, asm.R9, asm.R17)
	// Indirect call through the phase table.
	b.SLLI(asm.R9, asm.R9, 2)
	b.LA(asm.R10, "ftab")
	b.ADD(asm.R10, asm.R10, asm.R9)
	b.LW(asm.R10, 0, asm.R10)
	b.JALR(asm.RA, asm.R10)
	b.ADD(asm.R23, asm.R23, asm.RV)
	// Every 4th call reads a "source file" block through the kernel.
	b.ANDI(asm.R8, asm.R16, 3)
	b.BNEZ(asm.R8, "pm_nord")
	b.LA(asm.A0, "iobuf")
	b.MOVE(asm.A1, asm.R21)
	b.MOVE(asm.A2, asm.R16)
	b.SYSCALL(kernel.SysRead)
	b.LA(asm.R8, "iobuf")
	b.LW(asm.R9, 0, asm.R8)
	b.ADD(asm.R23, asm.R23, asm.R9)
	b.Label("pm_nord")
	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R17, "pm_call")
	// One file compiled; let someone else run.
	b.SYSCALL(kernel.SysYield)
	b.ADDI(asm.R21, asm.R21, 1)
	b.BLT(asm.R21, asm.R22, "pm_pass")
	// Publish the checksum and exit.
	b.LA(asm.R8, "result")
	b.SW(asm.R23, 0, asm.R8)
	b.SYSCALL(kernel.SysExit)
	b.HALT()

	// The compiler phases: each a distinct block of code (the large
	// instruction working set of gcc).
	for f, s := range w.specs {
		b.Label(fmt.Sprintf("fn%d", f))
		b.LI(asm.RV, 0)
		b.LA(asm.R8, "work")
		b.LI(asm.R12, pmakeRepeats)
		b.Label(fmt.Sprintf("fn%d_r", f))
		for k := 0; k < w.Slots; k++ {
			off := int32(4 * s.offs[k])
			b.LW(asm.R9, off, asm.R8)
			b.LIU(asm.R10, s.muls[k])
			b.MUL(asm.R9, asm.R9, asm.R10)
			b.LIU(asm.R10, s.adds[k])
			b.ADD(asm.R9, asm.R9, asm.R10)
			b.SRLI(asm.R11, asm.R9, s.shifts[k])
			b.XOR(asm.R9, asm.R9, asm.R11)
			b.SW(asm.R9, off, asm.R8)
			b.ADD(asm.RV, asm.RV, asm.R9)
		}
		b.ADDI(asm.R12, asm.R12, -1)
		b.BNEZ(asm.R12, fmt.Sprintf("fn%d_r", f))
		b.RET()
	}

	b.AlignData(4)
	b.DataLabel("ftab")
	for f := range w.specs {
		b.WordSym(fmt.Sprintf("fn%d", f))
	}
	b.DataLabel("work")
	b.Zero(4 * pmakeWork)
	b.DataLabel("iobuf")
	b.Zero(4 * kernel.BufWords)
	b.DataLabel("result")
	b.Word32(0)

	return b.Assemble(pmakeTextV, pmakeDataV)
}

// Configure implements Workload.
func (w *Pmake) Configure(m *core.Machine) error {
	w.specs = w.genSpecs()
	prog, err := w.buildUserProgram()
	if err != nil {
		return err
	}
	if prog.TextEnd() >= pmakeTextLim {
		return fmt.Errorf("pmake: text too large (%#x)", prog.TextEnd())
	}
	if prog.DataEnd() >= pmakeStackV-0x1000 {
		return fmt.Errorf("pmake: user image too large (%#x)", prog.DataEnd())
	}
	regions := []region{
		{"text", pmakeTextPhys, pmakeTextPhys + pmakeTextLim},
		{"kernel", kernel.Base, kernel.Limit},
	}
	for i := 0; i < w.Procs; i++ {
		start := pmakeDataBase + int64(i)*pmakeDataStep
		regions = append(regions, region{fmt.Sprintf("process %d segment", i), start, start + pmakeUserLim - pmakeDataV})
	}
	if err := checkLayout("pmake", m, regions...); err != nil {
		return err
	}
	w.prog = prog

	// One shared text image; a private data segment per process.
	m.LoadText(prog, pmakeTextPhys)
	spaces := make([]mem.Proc, w.Procs)
	for i := range spaces {
		prog.LoadDataAt(m.Img, pmakeDataPhys(i))
		spaces[i] = mem.Proc{
			TextPhys:    pmakeTextPhys,
			TextLimit:   pmakeTextLim,
			DataPhys:    pmakeDataPhys(i),
			UserLimit:   pmakeUserLim,
			KernelStart: kernel.Base,
			KernelLimit: kernel.Limit,
		}
	}

	k, err := kernel.Build(m, spaces, prog.Addr("start"), pmakeStackV)
	if err != nil {
		return err
	}
	w.k = k
	if w.Quantum > 0 {
		k.EnablePreemption(uint64(w.Quantum))
	}

	// Shared data (for the shared-L2 architecture's write policy) is the
	// kernel region; user segments are process-private.
	m.SetSharedData(func(a uint32) bool { return a >= kernel.Base && a < kernel.Limit })

	w.ref = w.reference()
	return nil
}

// Validate implements Workload.
func (w *Pmake) Validate(m *core.Machine) error {
	if !w.k.AllExited() {
		return fmt.Errorf("pmake: not all processes exited")
	}
	for i := 0; i < w.Procs; i++ {
		addr := pmakeDataPhys(i) + (w.prog.Addr("result") - pmakeDataV)
		if got := m.Img.Read32(addr); got != w.ref[i] {
			return fmt.Errorf("pmake: process %d checksum = %#x, want %#x", i, got, w.ref[i])
		}
	}
	return nil
}

// Kernel exposes the kernel instance (for tests and reports).
func (w *Pmake) Kernel() *kernel.Kernel { return w.k }
