// Package cpu holds the definitions shared by the two CPU models: the
// architectural context of a hardware thread, the functional-unit
// classes and latencies of the paper's Table 1, the instruction
// semantics (pure value functions reused by the in-order interpreter and
// the out-of-order window), and the interfaces through which a CPU model
// reaches code, the trap handler and the memory system.
package cpu

import (
	"fmt"
	"math"

	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
)

// Context is the architectural state of one hardware context (guest
// thread or process). The guest kernel switches contexts by swapping
// these fields.
type Context struct {
	Regs  [32]uint32
	FRegs [32]float64
	PC    uint32
	Space mem.Space
	TID   int // software thread/process id (for the kernel and reports)

	Halted bool
	Fault  string // non-empty after an unrecoverable guest fault
}

// Faultf marks the context faulted (stopping its CPU) with a reason.
func (c *Context) Faultf(format string, args ...any) {
	c.Halted = true
	// A fault halts this CPU for the rest of the run, so the format
	// executes at most once per context — off the steady-state path.
	c.Fault = fmt.Sprintf(format, args...) // faults halt the CPU; formats at most once per run
}

// NoWork is the sentinel a CPU model's NextWork returns when the core
// can never make progress on its own (halted, or inert until external
// state changes): it places no bound on how far the quiescence-skipping
// scheduler may fast-forward the cycle loop.
const NoWork = ^uint64(0)

// CodeSource resolves a physical address to the predecoded text of the
// loaded program region containing it: text[i] is the instruction at
// base+4*i. The text is immutable, so a CPU model keeps the region its
// last fetch hit and indexes it in line, asking again only when the PC
// leaves it. The simulator core implements it over the loaded programs.
type CodeSource interface {
	TextAt(paddr uint32) (text []Uop, base uint32, ok bool)
}

// TrapHandler receives SYSCALL traps. It may mutate the context —
// including redirecting the PC into guest kernel code or swapping the
// entire register state for a context switch. It returns the number of
// extra cycles to charge for trap entry (hardware overhead).
type TrapHandler interface {
	Syscall(now uint64, cpuID int, ctx *Context, num int32) uint64
}

// NopTrap ignores syscalls (parallel applications that never trap).
type NopTrap struct{}

// Syscall implements TrapHandler.
func (NopTrap) Syscall(uint64, int, *Context, int32) uint64 { return 0 }

// IRQ is the pseudo syscall number delivered to the trap handler for an
// external (timer) interrupt. Unlike a SYSCALL trap, the context's PC
// still points at the next unexecuted instruction.
const IRQ int32 = -1

// InterruptSource is a CPU model's external interrupt line and the two
// bounds on how far one tick may run ahead of the cycle it was ticked
// at. The simulator core implements it.
type InterruptSource interface {
	// Line returns the CPU's interrupt line, fixed for the machine's
	// life: the model reads it at instruction boundaries and clears it
	// only through AckInterrupt.
	Line(cpuID int) *bool
	AckInterrupt(cpuID int)

	// RunAheadBound is the earliest cycle at which anything outside a
	// CPU can next raise its line or look at its state. A model that has
	// finished its work at the cycle it was ticked at may go on to
	// execute, each at its own cycle below the bound, instructions that
	// touch nothing but the CPU itself, its private I-cache included
	// (memsys.IFetchHitter), provided its line is not live. A bound at or
	// below the next cycle (the zero value included) allows none, which
	// is the one-instruction tick.
	RunAheadBound() uint64

	// SharedBound is, for the CPU being ticked, the earliest cycle at
	// which another CPU can next touch the memory system, the guest image
	// or the kernel; it is never above RunAheadBound. Below it the run
	// may also do, each at its own cycle, the work that does touch them
	// (data references, refused references retried, fetches of a line
	// the I-cache misses), since nobody else's work falls between; a trap
	// or a halt still ends the run. So every call that touches state
	// another CPU can see is made in the (cycle, rotation) order of the
	// tick-everything loop; a hit in the CPU's own I-cache keeps only the
	// CPU's program order. It looks at every other CPU, so a model asks
	// once a tick, when a run first reaches such an instruction.
	SharedBound(cpuID int) uint64
}

// TickGate is the parallel scheduler's shared-state grant: Sync blocks
// until every CPU ahead of this one in the current cycle's service
// rotation has finished its tick, then returns with the shared
// simulation state (memory system, guest memory image, kernel
// structures) exactly as the serial loop would present it. The core
// installs it around every memory-system and trap call; a CPU model
// that reads the shared guest image outside those calls (MXS's
// graduation-time load refresh) must call Sync itself first. Sync is
// idempotent within one tick and free once the grant is held.
type TickGate interface {
	Sync()
}

// FUClass identifies a functional-unit type. The paper's CPU has two
// copies of every unit except the memory data port (Section 2.1).
type FUClass uint8

const (
	FUIntALU FUClass = iota
	FUIntMul
	FUIntDiv
	FUBranch
	FUMem
	FUFPAdd // FP add/sub, compares, converts, moves
	FUFPMul
	FUFPDiv
	NumFUClasses
)

// Copies returns the number of copies of the unit class (Table 1 text:
// two of everything except the memory data port).
func (f FUClass) Copies() int {
	if f == FUMem {
		return 1
	}
	return 2
}

// ClassOf maps an opcode to its functional unit.
func ClassOf(op isa.Op) FUClass {
	switch {
	case op.IsMem():
		return FUMem
	case op.IsBranch(), op.IsJump():
		return FUBranch
	}
	switch op {
	case isa.MUL:
		return FUIntMul
	case isa.DIV, isa.REM:
		return FUIntDiv
	case isa.FMULS, isa.FMULD:
		return FUFPMul
	case isa.FDIVS, isa.FDIVD:
		return FUFPDiv
	case isa.FADDS, isa.FSUBS, isa.FADDD, isa.FSUBD,
		isa.FMOV, isa.FNEG, isa.FEQ, isa.FLT, isa.FLE,
		isa.CVTIF, isa.CVTFI:
		return FUFPAdd
	}
	return FUIntALU
}

// Latency returns the execution latency of op in cycles per the paper's
// Table 1. Loads are "1 or 3": the memory system supplies the real
// completion time, so the table value here is the 1-cycle issue slot.
func Latency(op isa.Op) uint64 {
	switch op {
	case isa.MUL:
		return 2
	case isa.DIV, isa.REM:
		return 12
	case isa.FADDS, isa.FSUBS, isa.FADDD, isa.FSUBD:
		return 2
	case isa.FMULS, isa.FMULD:
		return 2
	case isa.FDIVS:
		return 12
	case isa.FDIVD:
		return 18
	case isa.FEQ, isa.FLT, isa.FLE, isa.CVTIF, isa.CVTFI, isa.FMOV, isa.FNEG:
		return 2
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.J, isa.JAL, isa.JR, isa.JALR:
		return 2
	}
	return 1
}

// ALU computes an integer register-register or register-immediate
// operation. a and b are the register operands (b is ignored for
// immediate forms, which use imm).
func ALU(op isa.Op, a, b uint32, imm int32) uint32 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return uint32(int32(a) * int32(b))
	case isa.DIV:
		return divS(a, b)
	case isa.REM:
		return remS(a, b)
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.NOR:
		return ^(a | b)
	case isa.SLL:
		return a << (b & 31)
	case isa.SRL:
		return a >> (b & 31)
	case isa.SRA:
		return uint32(int32(a) >> (b & 31))
	case isa.SLT:
		return boolToU32(int32(a) < int32(b))
	case isa.SLTU:
		return boolToU32(a < b)
	case isa.ADDI:
		return a + uint32(imm)
	case isa.ANDI:
		return a & uint32(uint16(imm))
	case isa.ORI:
		return a | uint32(uint16(imm))
	case isa.XORI:
		return a ^ uint32(uint16(imm))
	case isa.SLTI:
		return boolToU32(int32(a) < imm)
	case isa.LUI:
		return uint32(uint16(imm)) << 16
	case isa.SLLI:
		return a << (uint32(imm) & 31)
	case isa.SRLI:
		return a >> (uint32(imm) & 31)
	case isa.SRAI:
		return uint32(int32(a) >> (uint32(imm) & 31))
	}
	panic(fmt.Sprintf("cpu: ALU called with non-ALU op %v", op))
}

func divS(a, b uint32) uint32 {
	if b == 0 {
		return 0 // architected: division by zero yields zero, no trap
	}
	if int32(a) == math.MinInt32 && int32(b) == -1 {
		return a // overflow wraps
	}
	return uint32(int32(a) / int32(b))
}

func remS(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	if int32(a) == math.MinInt32 && int32(b) == -1 {
		return 0
	}
	return uint32(int32(a) % int32(b))
}

func boolToU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// FPOp computes a floating-point arithmetic operation. Single-precision
// variants round through float32.
func FPOp(op isa.Op, a, b float64) float64 {
	switch op {
	case isa.FADDS:
		return float64(float32(a) + float32(b))
	case isa.FSUBS:
		return float64(float32(a) - float32(b))
	case isa.FMULS:
		return float64(float32(a) * float32(b))
	case isa.FDIVS:
		return float64(float32(a) / float32(b))
	case isa.FADDD:
		return a + b
	case isa.FSUBD:
		return a - b
	case isa.FMULD:
		return a * b
	case isa.FDIVD:
		return a / b
	case isa.FMOV:
		return a
	case isa.FNEG:
		return -a
	}
	panic(fmt.Sprintf("cpu: FPOp called with non-FP op %v", op))
}

// FPCmp computes an FP compare result (1 or 0). Comparisons with NaN
// are false.
func FPCmp(op isa.Op, a, b float64) uint32 {
	switch op {
	case isa.FEQ:
		return boolToU32(a == b)
	case isa.FLT:
		return boolToU32(a < b)
	case isa.FLE:
		return boolToU32(a <= b)
	}
	panic(fmt.Sprintf("cpu: FPCmp called with non-compare op %v", op))
}

// CvtFI truncates a float64 to int32 with saturation (Go's conversion of
// out-of-range values is not portable, so clamp explicitly).
func CvtFI(f float64) uint32 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt32:
		return uint32(math.MaxInt32)
	case f <= math.MinInt32:
		return uint32(uint32(1) << 31)
	}
	return uint32(int32(f))
}

// BranchTaken evaluates a conditional branch on operand values.
func BranchTaken(op isa.Op, a, b uint32) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return int32(a) < int32(b)
	case isa.BGE:
		return int32(a) >= int32(b)
	}
	panic(fmt.Sprintf("cpu: BranchTaken called with non-branch op %v", op))
}

// StallStats records where a CPU's cycles went, attributed by the
// memory-hierarchy level that caused each stall. These feed the
// execution-time breakdowns of Figures 4-10 and the IPC-loss breakdown
// of Figure 11.
type StallStats struct {
	Instructions uint64
	IStall       [memsys.NumLevels]uint64 // instruction-fetch stalls
	DStall       [memsys.NumLevels]uint64 // data stalls
	PipeStall    uint64                   // MXS only: window/FU/bank stalls

	// Speculation counters (MXS only; zero under Mipsy).
	Branches    uint64 // control instructions resolved
	Mispredicts uint64 // resolved against the prediction
	Squashed    uint64 // wrong-path instructions removed from the window
	Replays     uint64 // loads replayed because another CPU wrote the location
}

// Add accumulates o into s.
func (s *StallStats) Add(o StallStats) {
	s.Instructions += o.Instructions
	for i := range s.IStall {
		s.IStall[i] += o.IStall[i]
		s.DStall[i] += o.DStall[i]
	}
	s.PipeStall += o.PipeStall
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	s.Squashed += o.Squashed
	s.Replays += o.Replays
}

// TotalIStall sums instruction-fetch stall cycles.
func (s *StallStats) TotalIStall() uint64 {
	var t uint64
	for _, v := range s.IStall {
		t += v
	}
	return t
}

// TotalDStall sums data stall cycles.
func (s *StallStats) TotalDStall() uint64 {
	var t uint64
	for _, v := range s.DStall {
		t += v
	}
	return t
}
