// Package asm is an embedded macro-assembler for KRISC. Guest programs
// (the benchmark kernels, the guest runtime library and the miniature
// kernel) are written against the Builder API from Go code, assembled
// into a Program, and loaded into the simulated physical memory.
//
// The assembler supports labels in a single flat namespace across the
// text and data sections, PC-relative branch fixups, absolute jump
// fixups, and LA/LI pseudo-instructions that expand to LUI+ORI pairs.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
)

// Reg names an integer register. FReg names a floating-point register.
type Reg = uint8
type FReg = uint8

// Integer register names. R0 is hardwired zero; SP, RA, RV and A0..A3
// follow the KRISC ABI.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// ABI aliases.
const (
	RV Reg = isa.RegRV   // return value
	A0 Reg = isa.RegArg0 // arguments
	A1 Reg = isa.RegArg1
	A2 Reg = isa.RegArg2
	A3 Reg = isa.RegArg3
	SP Reg = isa.RegSP
	RA Reg = isa.RegRA
)

// FP register names.
const (
	F0 FReg = iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
	F16
	F17
	F18
	F19
	F20
	F21
	F22
	F23
	F24
	F25
	F26
	F27
	F28
	F29
	F30
	F31
)

type fixupKind uint8

const (
	fixBranch fixupKind = iota // I-format imm <- target - (pc+1), instruction units
	fixJump                    // J-format imm <- absolute instruction index of target
	fixLUI                     // imm <- high 16 bits of target byte address
	fixORI                     // imm <- low 16 bits of target byte address
)

type fixup struct {
	inst  int // index into text
	label string
	kind  fixupKind
}

type symbol struct {
	text  bool // text label (value = instruction index) vs data (byte offset)
	value uint32
}

// Builder accumulates a guest program. Create with NewBuilder, emit
// instructions and data, then call Assemble.
type Builder struct {
	text     []isa.Inst
	data     []byte
	syms     map[string]symbol
	fixups   []fixup
	dataSyms []fixup // data words holding a label's final address
	errs     []error
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{syms: make(map[string]symbol)}
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Label defines a text label at the current instruction position.
func (b *Builder) Label(name string) {
	if _, dup := b.syms[name]; dup {
		b.errorf("asm: duplicate label %q", name)
		return
	}
	b.syms[name] = symbol{text: true, value: uint32(len(b.text))}
}

// PC returns the current instruction index (useful for size accounting).
func (b *Builder) PC() int { return len(b.text) }

func (b *Builder) emit(in isa.Inst) {
	b.text = append(b.text, in)
}

func (b *Builder) emitFixup(in isa.Inst, label string, kind fixupKind) {
	b.fixups = append(b.fixups, fixup{inst: len(b.text), label: label, kind: kind})
	b.emit(in)
}

// --- Integer register-register ---

func (b *Builder) ADD(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.ADD, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) SUB(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.SUB, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) MUL(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.MUL, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) DIV(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.DIV, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) REM(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.REM, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) AND(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.AND, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) OR(rd, rs, rt Reg)   { b.emit(isa.Inst{Op: isa.OR, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) XOR(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.XOR, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) NOR(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.NOR, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) SLL(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.SLL, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) SRL(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.SRL, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) SRA(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.SRA, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) SLT(rd, rs, rt Reg)  { b.emit(isa.Inst{Op: isa.SLT, R1: rd, R2: rs, R3: rt}) }
func (b *Builder) SLTU(rd, rs, rt Reg) { b.emit(isa.Inst{Op: isa.SLTU, R1: rd, R2: rs, R3: rt}) }

// --- Integer register-immediate ---

func (b *Builder) immI(op isa.Op, rt, rs Reg, imm int32) {
	if imm < -32768 || imm > 32767 {
		b.errorf("asm: %v immediate %d out of 16-bit range", op, imm)
	}
	b.emit(isa.Inst{Op: op, R1: rt, R2: rs, Imm: imm})
}

func (b *Builder) ADDI(rt, rs Reg, imm int32) { b.immI(isa.ADDI, rt, rs, imm) }
func (b *Builder) SLTI(rt, rs Reg, imm int32) { b.immI(isa.SLTI, rt, rs, imm) }

// Logical immediates are zero-extended at execution; accept 0..0xffff.
func (b *Builder) logI(op isa.Op, rt, rs Reg, imm uint32) {
	if imm > 0xffff {
		b.errorf("asm: %v immediate %#x out of 16-bit range", op, imm)
	}
	b.emit(isa.Inst{Op: op, R1: rt, R2: rs, Imm: int32(int16(uint16(imm)))})
}

func (b *Builder) ANDI(rt, rs Reg, imm uint32) { b.logI(isa.ANDI, rt, rs, imm) }
func (b *Builder) ORI(rt, rs Reg, imm uint32)  { b.logI(isa.ORI, rt, rs, imm) }
func (b *Builder) XORI(rt, rs Reg, imm uint32) { b.logI(isa.XORI, rt, rs, imm) }

// LUI loads imm<<16 into rt.
func (b *Builder) LUI(rt Reg, imm uint32) { b.logI(isa.LUI, rt, 0, imm) }

// Shift-immediates use the low 5 bits of imm.
func (b *Builder) SLLI(rt, rs Reg, sh uint8) {
	b.emit(isa.Inst{Op: isa.SLLI, R1: rt, R2: rs, Imm: int32(sh & 31)})
}
func (b *Builder) SRLI(rt, rs Reg, sh uint8) {
	b.emit(isa.Inst{Op: isa.SRLI, R1: rt, R2: rs, Imm: int32(sh & 31)})
}
func (b *Builder) SRAI(rt, rs Reg, sh uint8) {
	b.emit(isa.Inst{Op: isa.SRAI, R1: rt, R2: rs, Imm: int32(sh & 31)})
}

// --- Memory ---

func (b *Builder) memI(op isa.Op, r Reg, off int32, base Reg) {
	if off < -32768 || off > 32767 {
		b.errorf("asm: %v offset %d out of 16-bit range", op, off)
	}
	b.emit(isa.Inst{Op: op, R1: r, R2: base, Imm: off})
}

func (b *Builder) LW(rt Reg, off int32, base Reg)  { b.memI(isa.LW, rt, off, base) }
func (b *Builder) SW(rt Reg, off int32, base Reg)  { b.memI(isa.SW, rt, off, base) }
func (b *Builder) LB(rt Reg, off int32, base Reg)  { b.memI(isa.LB, rt, off, base) }
func (b *Builder) SB(rt Reg, off int32, base Reg)  { b.memI(isa.SB, rt, off, base) }
func (b *Builder) LD(ft FReg, off int32, base Reg) { b.memI(isa.LD, ft, off, base) }
func (b *Builder) SD(ft FReg, off int32, base Reg) { b.memI(isa.SD, ft, off, base) }
func (b *Builder) LL(rt Reg, off int32, base Reg)  { b.memI(isa.LL, rt, off, base) }
func (b *Builder) SC(rt Reg, off int32, base Reg)  { b.memI(isa.SC, rt, off, base) }

// --- Control flow ---

func (b *Builder) branch(op isa.Op, rs, rt Reg, label string) {
	b.emitFixup(isa.Inst{Op: op, R1: rs, R2: rt}, label, fixBranch)
}

// BEQ branches to label if rs == rt.
func (b *Builder) BEQ(rs, rt Reg, label string) { b.branch(isa.BEQ, rs, rt, label) }

// BNE branches to label if rs != rt.
func (b *Builder) BNE(rs, rt Reg, label string) { b.branch(isa.BNE, rs, rt, label) }

// BLT branches to label if rs < rt (signed).
func (b *Builder) BLT(rs, rt Reg, label string) { b.branch(isa.BLT, rs, rt, label) }

// BGE branches to label if rs >= rt (signed).
func (b *Builder) BGE(rs, rt Reg, label string) { b.branch(isa.BGE, rs, rt, label) }

// BGT and BLE are pseudo-branches synthesized by operand swap.
func (b *Builder) BGT(rs, rt Reg, label string) { b.branch(isa.BLT, rt, rs, label) }
func (b *Builder) BLE(rs, rt Reg, label string) { b.branch(isa.BGE, rt, rs, label) }

// BEQZ/BNEZ compare against r0.
func (b *Builder) BEQZ(rs Reg, label string) { b.BEQ(rs, R0, label) }
func (b *Builder) BNEZ(rs Reg, label string) { b.BNE(rs, R0, label) }

// J jumps unconditionally to label.
func (b *Builder) J(label string) { b.emitFixup(isa.Inst{Op: isa.J}, label, fixJump) }

// JAL calls label, leaving the return address in RA.
func (b *Builder) JAL(label string) { b.emitFixup(isa.Inst{Op: isa.JAL}, label, fixJump) }

// JR jumps to the address in rs.
func (b *Builder) JR(rs Reg) { b.emit(isa.Inst{Op: isa.JR, R2: rs}) }

// JALR calls the address in rs, leaving the return address in rd.
func (b *Builder) JALR(rd, rs Reg) { b.emit(isa.Inst{Op: isa.JALR, R1: rd, R2: rs}) }

// RET returns via RA.
func (b *Builder) RET() { b.JR(RA) }

// --- Floating point ---

func (b *Builder) fp3(op isa.Op, fd, fs, ft FReg) {
	b.emit(isa.Inst{Op: op, R1: fd, R2: fs, R3: ft})
}

func (b *Builder) FADDS(fd, fs, ft FReg) { b.fp3(isa.FADDS, fd, fs, ft) }
func (b *Builder) FSUBS(fd, fs, ft FReg) { b.fp3(isa.FSUBS, fd, fs, ft) }
func (b *Builder) FMULS(fd, fs, ft FReg) { b.fp3(isa.FMULS, fd, fs, ft) }
func (b *Builder) FDIVS(fd, fs, ft FReg) { b.fp3(isa.FDIVS, fd, fs, ft) }
func (b *Builder) FADDD(fd, fs, ft FReg) { b.fp3(isa.FADDD, fd, fs, ft) }
func (b *Builder) FSUBD(fd, fs, ft FReg) { b.fp3(isa.FSUBD, fd, fs, ft) }
func (b *Builder) FMULD(fd, fs, ft FReg) { b.fp3(isa.FMULD, fd, fs, ft) }
func (b *Builder) FDIVD(fd, fs, ft FReg) { b.fp3(isa.FDIVD, fd, fs, ft) }
func (b *Builder) FMOV(fd, fs FReg)      { b.emit(isa.Inst{Op: isa.FMOV, R1: fd, R2: fs}) }
func (b *Builder) FNEG(fd, fs FReg)      { b.emit(isa.Inst{Op: isa.FNEG, R1: fd, R2: fs}) }

// FP compares write 0/1 into an integer register.
func (b *Builder) FEQ(rd Reg, fs, ft FReg) { b.emit(isa.Inst{Op: isa.FEQ, R1: rd, R2: fs, R3: ft}) }
func (b *Builder) FLT(rd Reg, fs, ft FReg) { b.emit(isa.Inst{Op: isa.FLT, R1: rd, R2: fs, R3: ft}) }
func (b *Builder) FLE(rd Reg, fs, ft FReg) { b.emit(isa.Inst{Op: isa.FLE, R1: rd, R2: fs, R3: ft}) }

// CVTIF converts the signed integer in rs to float64 in fd.
func (b *Builder) CVTIF(fd FReg, rs Reg) { b.emit(isa.Inst{Op: isa.CVTIF, R1: fd, R2: rs}) }

// CVTFI truncates the float64 in fs to a signed integer in rd.
func (b *Builder) CVTFI(rd Reg, fs FReg) { b.emit(isa.Inst{Op: isa.CVTFI, R1: rd, R2: fs}) }

// --- System ---

// SYSCALL traps into the guest kernel with the given call number.
func (b *Builder) SYSCALL(num int32) { b.emit(isa.Inst{Op: isa.SYSCALL, Imm: num}) }

// HALT stops this hardware context permanently.
func (b *Builder) HALT() { b.emit(isa.Inst{Op: isa.HALT}) }

// CPUID loads the physical CPU number into rd.
func (b *Builder) CPUID(rd Reg) { b.emit(isa.Inst{Op: isa.CPUID, R1: rd}) }

// --- Pseudo-instructions ---

// NOP emits add r0, r0, r0.
func (b *Builder) NOP() { b.emit(isa.Inst{Op: isa.ADD}) }

// MOVE copies rs to rd.
func (b *Builder) MOVE(rd, rs Reg) { b.ADD(rd, rs, R0) }

// LI loads a 32-bit constant, using one instruction when it fits in a
// signed 16-bit immediate and a LUI/ORI pair otherwise.
func (b *Builder) LI(rd Reg, v int32) {
	if v >= -32768 && v <= 32767 {
		b.ADDI(rd, R0, v)
		return
	}
	u := uint32(v)
	b.LUI(rd, u>>16)
	if lo := u & 0xffff; lo != 0 {
		b.ORI(rd, rd, lo)
	}
}

// LIU is LI for addresses and other unsigned quantities.
func (b *Builder) LIU(rd Reg, v uint32) { b.LI(rd, int32(v)) }

// LA loads the final address of label into rd. It always expands to a
// LUI/ORI pair so the fixup size is known before addresses are assigned.
func (b *Builder) LA(rd Reg, label string) {
	b.emitFixup(isa.Inst{Op: isa.LUI, R1: rd}, label, fixLUI)
	b.emitFixup(isa.Inst{Op: isa.ORI, R1: rd, R2: rd}, label, fixORI)
}

// Prologue opens a stack frame of n bytes (n must be a positive multiple
// of 8) and saves RA at the top of the frame.
func (b *Builder) Prologue(n int32) {
	if n <= 0 || n%8 != 0 {
		b.errorf("asm: prologue size %d must be a positive multiple of 8", n)
		return
	}
	b.ADDI(SP, SP, -n)
	b.SW(RA, n-4, SP)
}

// Epilogue restores RA, pops the frame opened by Prologue(n) and returns.
func (b *Builder) Epilogue(n int32) {
	b.LW(RA, n-4, SP)
	b.ADDI(SP, SP, n)
	b.RET()
}

// --- Data section ---

// DataLabel defines a label at the current data position.
func (b *Builder) DataLabel(name string) {
	if _, dup := b.syms[name]; dup {
		b.errorf("asm: duplicate label %q", name)
		return
	}
	b.syms[name] = symbol{text: false, value: uint32(len(b.data))}
}

// AlignData pads the data section to an n-byte boundary (n power of two).
func (b *Builder) AlignData(n uint32) {
	if n == 0 || n&(n-1) != 0 {
		b.errorf("asm: align %d not a power of two", n)
		return
	}
	for uint32(len(b.data))%n != 0 {
		b.data = append(b.data, 0)
	}
}

// Word32 appends 32-bit little-endian words to the data section.
func (b *Builder) Word32(vs ...uint32) {
	b.AlignData(4)
	for _, v := range vs {
		b.data = append(b.data, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// WordSym appends a 32-bit word that will hold label's final address
// (for jump tables and function pointers).
func (b *Builder) WordSym(label string) {
	b.AlignData(4)
	b.dataSyms = append(b.dataSyms, fixup{inst: len(b.data), label: label})
	b.data = append(b.data, 0, 0, 0, 0)
}

// Float64 appends float64 values to the data section (8-byte aligned).
func (b *Builder) Float64(vs ...float64) {
	b.AlignData(8)
	for _, v := range vs {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b.data = append(b.data, byte(bits>>(8*i)))
		}
	}
}

// Zero appends n zero bytes (uninitialized storage).
func (b *Builder) Zero(n uint32) {
	b.data = append(b.data, make([]byte, n)...)
}

// DataSize returns the current size of the data section in bytes.
func (b *Builder) DataSize() uint32 { return uint32(len(b.data)) }

// --- Assembly ---

// Program is an assembled guest program ready to be loaded into memory.
type Program struct {
	TextBase uint32     // byte address of the first instruction
	DataBase uint32     // byte address of the data section
	Insts    []isa.Inst // decoded instructions, index = (pc-TextBase)/4
	Words    []isa.Word // encoded instructions, parallel to Insts
	Data     []byte     // initialized data section
	syms     map[string]uint32
}

// Assemble resolves all labels and fixups and produces a Program with
// the text section at textBase and data section at dataBase (both
// byte addresses; textBase must be 4-byte aligned, dataBase 8-byte).
func (b *Builder) Assemble(textBase, dataBase uint32) (*Program, error) {
	if textBase%4 != 0 {
		b.errorf("asm: text base %#x not 4-byte aligned", textBase)
	}
	if dataBase%8 != 0 {
		b.errorf("asm: data base %#x not 8-byte aligned", dataBase)
	}
	textEnd := uint64(textBase) + 4*uint64(len(b.text))
	if dataBase >= textBase && uint64(dataBase) < textEnd {
		b.errorf("asm: data base %#x overlaps text [%#x,%#x)", dataBase, textBase, textEnd)
	}

	addrOf := func(name string) (uint32, bool) {
		s, ok := b.syms[name]
		if !ok {
			return 0, false
		}
		if s.text {
			return textBase + 4*s.value, true
		}
		return dataBase + s.value, true
	}

	insts := make([]isa.Inst, len(b.text))
	copy(insts, b.text)

	for _, f := range b.fixups {
		target, ok := addrOf(f.label)
		if !ok {
			b.errorf("asm: undefined label %q", f.label)
			continue
		}
		switch f.kind {
		case fixBranch:
			off := int64(target-textBase)/4 - int64(f.inst) - 1
			if off < -32768 || off > 32767 {
				b.errorf("asm: branch to %q out of range (%d instructions)", f.label, off)
				continue
			}
			insts[f.inst].Imm = int32(off)
		case fixJump:
			idx := target / 4
			if idx >= 1<<26 {
				b.errorf("asm: jump target %q at %#x out of 26-bit range", f.label, target)
				continue
			}
			insts[f.inst].Imm = int32(idx)
		case fixLUI:
			insts[f.inst].Imm = int32(int16(uint16(target >> 16)))
		case fixORI:
			insts[f.inst].Imm = int32(int16(uint16(target)))
		}
	}

	data := make([]byte, len(b.data))
	copy(data, b.data)
	for _, f := range b.dataSyms {
		target, ok := addrOf(f.label)
		if !ok {
			b.errorf("asm: undefined label %q in data word", f.label)
			continue
		}
		data[f.inst] = byte(target)
		data[f.inst+1] = byte(target >> 8)
		data[f.inst+2] = byte(target >> 16)
		data[f.inst+3] = byte(target >> 24)
	}

	if len(b.errs) > 0 {
		// Report deterministically: first error plus count.
		return nil, fmt.Errorf("asm: %d error(s); first: %w", len(b.errs), b.errs[0])
	}

	words := make([]isa.Word, len(insts))
	for i, in := range insts {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("asm: instruction %d (%v): %w", i, in, err)
		}
		words[i] = w
	}

	syms := make(map[string]uint32, len(b.syms))
	for name := range b.syms {
		a, _ := addrOf(name)
		syms[name] = a
	}

	return &Program{
		TextBase: textBase,
		DataBase: dataBase,
		Insts:    insts,
		Words:    words,
		Data:     data,
		syms:     syms,
	}, nil
}

// MustAssemble is Assemble but panics on error, for use by the built-in
// workloads whose programs are fixed at build time.
func (b *Builder) MustAssemble(textBase, dataBase uint32) *Program {
	p, err := b.Assemble(textBase, dataBase)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the resolved byte address of a label, panicking if the
// label does not exist (assembly already validated all references).
func (p *Program) Addr(label string) uint32 {
	a, ok := p.syms[label]
	if !ok {
		panic(fmt.Sprintf("asm: no such label %q", label))
	}
	return a
}

// HasLabel reports whether the program defines label.
func (p *Program) HasLabel(label string) bool {
	_, ok := p.syms[label]
	return ok
}

// Labels returns all label names in sorted order.
func (p *Program) Labels() []string {
	out := make([]string, 0, len(p.syms))
	for name := range p.syms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Symbol is one resolved label with the address range it covers:
// [Start, End) runs from the label to the next label in the same
// section (or the section's end). Text labels cover code — function
// entries and branch targets alike — and data labels cover variables
// and arrays, so a profiler or disassembler can map any address back
// to the nearest preceding label.
type Symbol struct {
	Name  string
	Start uint32 // resolved byte address of the label
	End   uint32 // first byte address past the symbol's range
	Text  bool   // text-section label (code) vs data-section label
}

// Symbols returns the program's symbol table sorted by Start then
// Name. Labels sharing an address (aliases) each get the full range
// to the next distinct label address.
func (p *Program) Symbols() []Symbol {
	syms := make([]Symbol, 0, len(p.syms))
	for name, addr := range p.syms {
		text := addr >= p.TextBase && addr < p.TextEnd()
		syms = append(syms, Symbol{Name: name, Start: addr, Text: text})
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Start != syms[j].Start {
			return syms[i].Start < syms[j].Start
		}
		return syms[i].Name < syms[j].Name
	})
	// End of each symbol = next distinct label address in its section,
	// else the section end.
	for i := range syms {
		end := p.DataEnd()
		if syms[i].Text {
			end = p.TextEnd()
		}
		for j := i + 1; j < len(syms); j++ {
			if syms[j].Text == syms[i].Text && syms[j].Start > syms[i].Start {
				end = syms[j].Start
				break
			}
		}
		syms[i].End = end
	}
	return syms
}

// Listing renders the text section as an annotated disassembly:
// addresses, label definitions, and one instruction per line.
func (p *Program) Listing() string {
	labelsAt := make(map[uint32][]string)
	for name, addr := range p.syms {
		if addr >= p.TextBase && addr < p.TextEnd() {
			labelsAt[addr] = append(labelsAt[addr], name)
		}
	}
	for _, ls := range labelsAt {
		sort.Strings(ls)
	}
	var sb strings.Builder
	for i, in := range p.Insts {
		addr := p.TextBase + 4*uint32(i)
		for _, l := range labelsAt[addr] {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		fmt.Fprintf(&sb, "  %08x:  %s\n", addr, in)
	}
	return sb.String()
}

// TextEnd returns the first byte address past the text section.
func (p *Program) TextEnd() uint32 { return p.TextBase + 4*uint32(len(p.Insts)) }

// DataEnd returns the first byte address past the data section.
func (p *Program) DataEnd() uint32 { return p.DataBase + uint32(len(p.Data)) }

// Load writes the encoded text and the data section into the image at
// physBias plus the program's bases. physBias is 0 when the program's
// addresses are physical (identity-mapped workloads); for relocated
// processes it is the process's user segment base.
func (p *Program) Load(img *mem.Image, physBias uint32) {
	p.LoadText(img, physBias)
	p.LoadDataAt(img, physBias+p.DataBase)
}

// LoadText writes only the encoded text at physBias+TextBase — for
// processes that share one physical text image but have private data
// segments.
func (p *Program) LoadText(img *mem.Image, physBias uint32) {
	text := make([]byte, 0, 4*len(p.Words))
	for _, w := range p.Words {
		text = binary.LittleEndian.AppendUint32(text, uint32(w))
	}
	img.WriteBytes(physBias+p.TextBase, text)
}

// LoadDataAt writes only the data section, placing its first byte at the
// given physical address (for per-process private data segments).
func (p *Program) LoadDataAt(img *mem.Image, physBase uint32) {
	img.WriteBytes(physBase, p.Data)
}
