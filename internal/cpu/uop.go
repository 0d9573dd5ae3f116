package cpu

import "cmpsim/internal/isa"

// Uop is one instruction of a loaded program with everything static
// about it decoded once, at load: a CPU model fetches a Uop and reads
// fields and flag bits where it would otherwise re-derive them from the
// opcode on every fetch, dispatch, issue and graduation.
type Uop struct {
	Inst  isa.Inst
	Dest  uint8    // unified destination register, isa.RegNone if none (Inst.Dest)
	Src   [2]uint8 // unified source registers, r0 dropped (Inst.Srcs); NSrc are valid
	NSrc  uint8
	Class FUClass
	Lat   uint8 // Table 1 execution latency in cycles (Latency)
	Size  uint8 // memory access width in bytes, 0 for non-memory (Op.MemBytes)
	Kind  Kind
	Flags UopFlags
}

// UopFlags are the per-instruction predicates the pipeline stages test.
type UopFlags uint8

const (
	UopLoad      UopFlags = 1 << iota // reads data memory (LL included)
	UopStore                          // writes data memory (SC included)
	UopSerial                         // MXS executes it at the ROB head only: SYSCALL, HALT, LL, SC
	UopBTB                            // next PC predicted through the BTB: branches, JR, JALR
	UopJump                           // next PC is the instruction's own target: J, JAL
	UopFetchStop                      // nothing is fetched past it: SYSCALL, HALT
	UopLocal                          // touches nothing outside the CPU: Mipsy may run ahead through it

	UopMem     = UopLoad | UopStore
	UopControl = UopBTB | UopJump
)

// Kind selects how an instruction executes once its operands are read:
// instructions of one kind differ only in the value function applied
// (ALU, FPOp, FPCmp or BranchTaken on Inst.Op).
type Kind uint8

const (
	KindALU    Kind = iota // R1 <- ALU(R2, R3)
	KindALUImm             // R1 <- ALU(R2, Imm)
	KindLoad               // LW, LB, LD, LL
	KindStore              // SW, SB, SC: integer data from R1
	KindStoreF             // SD: FP data from F1
	KindBranch             // conditional on R1, R2
	KindJ
	KindJAL
	KindJR
	KindJALR
	KindFP      // F1 <- FPOp(F2, F3)
	KindFPUnary // F1 <- FPOp(F2)
	KindFPCmp   // R1 <- FPCmp(F2, F3)
	KindCVTIF
	KindCVTFI
	KindCPUID
	KindSyscall
	KindHalt
)

// field names where a decoded operand comes from: an Inst register field
// read as an integer (r) or FP (f) register, or the link register.
type field uint8

const (
	none field = iota
	r1
	r2
	r3
	f1
	f2
	f3
	ra
)

// reg resolves f against in to a unified register number; integer r0 is
// isa.RegNone on either side (writes are discarded, reads never create a
// dependence).
func (f field) reg(in isa.Inst) uint8 {
	r := [...]uint8{none: 0, r1: in.R1, r2: in.R2, r3: in.R3, f1: in.R1, f2: in.R2, f3: in.R3, ra: isa.RegRA}[f]
	switch {
	case f >= f1 && f <= f3:
		return r + isa.RegFPBase
	case r == 0:
		return isa.RegNone
	}
	return r
}

// decode is the static half of a Uop, one row per opcode.
var decode = [isa.NumOps]struct {
	kind   Kind
	class  FUClass
	lat    uint8
	size   uint8
	flags  UopFlags
	dst    field
	s0, s1 field
}{
	isa.ADD:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.SUB:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.MUL:  {KindALU, FUIntMul, 2, 0, UopLocal, r1, r2, r3},
	isa.DIV:  {KindALU, FUIntDiv, 12, 0, UopLocal, r1, r2, r3},
	isa.REM:  {KindALU, FUIntDiv, 12, 0, UopLocal, r1, r2, r3},
	isa.AND:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.OR:   {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.XOR:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.NOR:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.SLL:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.SRL:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.SRA:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.SLT:  {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},
	isa.SLTU: {KindALU, FUIntALU, 1, 0, UopLocal, r1, r2, r3},

	isa.ADDI: {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, r2, none},
	isa.ANDI: {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, r2, none},
	isa.ORI:  {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, r2, none},
	isa.XORI: {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, r2, none},
	isa.SLTI: {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, r2, none},
	isa.LUI:  {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, none, none},
	isa.SLLI: {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, r2, none},
	isa.SRLI: {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, r2, none},
	isa.SRAI: {KindALUImm, FUIntALU, 1, 0, UopLocal, r1, r2, none},

	// Loads are "1 or 3" in Table 1: the memory system supplies the real
	// completion time. Stores list the base before the data.
	isa.LW: {KindLoad, FUMem, 1, 4, UopLoad, r1, r2, none},
	isa.SW: {KindStore, FUMem, 1, 4, UopStore, none, r2, r1},
	isa.LB: {KindLoad, FUMem, 1, 1, UopLoad, r1, r2, none},
	isa.SB: {KindStore, FUMem, 1, 1, UopStore, none, r2, r1},
	isa.LD: {KindLoad, FUMem, 1, 8, UopLoad, f1, r2, none},
	isa.SD: {KindStoreF, FUMem, 1, 8, UopStore, none, r2, f1},
	isa.LL: {KindLoad, FUMem, 1, 4, UopLoad | UopSerial, r1, r2, none},
	isa.SC: {KindStore, FUMem, 1, 4, UopStore | UopSerial, r1, r2, r1},

	isa.BEQ: {KindBranch, FUBranch, 2, 0, UopBTB | UopLocal, none, r1, r2},
	isa.BNE: {KindBranch, FUBranch, 2, 0, UopBTB | UopLocal, none, r1, r2},
	isa.BLT: {KindBranch, FUBranch, 2, 0, UopBTB | UopLocal, none, r1, r2},
	isa.BGE: {KindBranch, FUBranch, 2, 0, UopBTB | UopLocal, none, r1, r2},

	isa.J:    {KindJ, FUBranch, 2, 0, UopJump | UopLocal, none, none, none},
	isa.JAL:  {KindJAL, FUBranch, 2, 0, UopJump | UopLocal, ra, none, none},
	isa.JR:   {KindJR, FUBranch, 2, 0, UopBTB | UopLocal, none, r2, none},
	isa.JALR: {KindJALR, FUBranch, 2, 0, UopBTB | UopLocal, r1, r2, none},

	isa.FADDS: {KindFP, FUFPAdd, 2, 0, UopLocal, f1, f2, f3},
	isa.FSUBS: {KindFP, FUFPAdd, 2, 0, UopLocal, f1, f2, f3},
	isa.FMULS: {KindFP, FUFPMul, 2, 0, UopLocal, f1, f2, f3},
	isa.FDIVS: {KindFP, FUFPDiv, 12, 0, UopLocal, f1, f2, f3},
	isa.FADDD: {KindFP, FUFPAdd, 2, 0, UopLocal, f1, f2, f3},
	isa.FSUBD: {KindFP, FUFPAdd, 2, 0, UopLocal, f1, f2, f3},
	isa.FMULD: {KindFP, FUFPMul, 2, 0, UopLocal, f1, f2, f3},
	isa.FDIVD: {KindFP, FUFPDiv, 18, 0, UopLocal, f1, f2, f3},
	isa.FMOV:  {KindFPUnary, FUFPAdd, 2, 0, UopLocal, f1, f2, none},
	isa.FNEG:  {KindFPUnary, FUFPAdd, 2, 0, UopLocal, f1, f2, none},
	isa.FEQ:   {KindFPCmp, FUFPAdd, 2, 0, UopLocal, r1, f2, f3},
	isa.FLT:   {KindFPCmp, FUFPAdd, 2, 0, UopLocal, r1, f2, f3},
	isa.FLE:   {KindFPCmp, FUFPAdd, 2, 0, UopLocal, r1, f2, f3},
	isa.CVTIF: {KindCVTIF, FUFPAdd, 2, 0, UopLocal, f1, r2, none},
	isa.CVTFI: {KindCVTFI, FUFPAdd, 2, 0, UopLocal, r1, f2, none},

	isa.SYSCALL: {KindSyscall, FUIntALU, 1, 0, UopSerial | UopFetchStop, none, none, none},
	isa.HALT:    {KindHalt, FUIntALU, 1, 0, UopSerial | UopFetchStop, none, none, none},
	isa.CPUID:   {KindCPUID, FUIntALU, 1, 0, UopLocal, r1, none, none},
}

// Predecode decodes in. in.Op must be a valid opcode, which the
// assembler and isa.Decode guarantee.
func Predecode(in isa.Inst) Uop {
	d := &decode[in.Op]
	u := Uop{
		Inst: in, Dest: d.dst.reg(in),
		Class: d.class, Lat: d.lat, Size: d.size, Kind: d.kind, Flags: d.flags,
	}
	for _, f := range [...]field{d.s0, d.s1} {
		if r := f.reg(in); r != isa.RegNone {
			u.Src[u.NSrc] = r
			u.NSrc++
		}
	}
	return u
}

// PredecodeText decodes a program's text.
func PredecodeText(insts []isa.Inst) []Uop {
	text := make([]Uop, len(insts))
	for i, in := range insts {
		text[i] = Predecode(in)
	}
	return text
}
