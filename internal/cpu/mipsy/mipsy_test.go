package mipsy

import (
	"testing"

	"cmpsim/internal/asm"
	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
)

// progSource adapts one assembled program to cpu.CodeSource.
type progSource struct {
	p    *asm.Program
	text []cpu.Uop
}

func newProgSource(p *asm.Program) progSource {
	return progSource{p: p, text: cpu.PredecodeText(p.Insts)}
}

func (s progSource) TextAt(paddr uint32) ([]cpu.Uop, uint32, bool) {
	if paddr < s.p.TextBase || paddr >= s.p.TextEnd() {
		return nil, 0, false
	}
	return s.text, s.p.TextBase, true
}

type rig struct {
	img  *mem.Image
	sys  memsys.System
	prog *asm.Program
	cpus []*CPU
}

// newRig assembles b at 0/0x10000, loads it, and creates n CPUs all
// starting at label "start" (or per-CPU start labels "startN" if
// present), on a shared-memory architecture.
func newRig(t *testing.T, b *asm.Builder, n int, trap cpu.TrapHandler) *rig {
	t.Helper()
	p, err := b.Assemble(0, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	img := mem.NewImage(1 << 20)
	p.Load(img, 0)
	cfg := memsys.DefaultConfig()
	sys := memsys.NewSharedMem(cfg)
	r := &rig{img: img, sys: sys, prog: p}
	src := newProgSource(p)
	for i := 0; i < n; i++ {
		ctx := &cpu.Context{Space: mem.Identity{Limit: img.Size()}, TID: i}
		ctx.PC = p.Addr("start")
		ctx.Regs[isa.RegSP] = 0x80000 + uint32(i)*0x1000
		ctx.Regs[asm.A0] = uint32(i)
		r.cpus = append(r.cpus, New(i, ctx, sys, sys, src, trap, img, cfg.LineBytes))
	}
	return r
}

// run drives the rig until all CPUs halt.
func (r *rig) run(t *testing.T, maxCycles uint64) uint64 {
	t.Helper()
	for cyc := uint64(0); cyc < maxCycles; cyc++ {
		alive := false
		for _, c := range r.cpus {
			if !c.Done() {
				alive = true
				c.Tick(cyc)
			}
		}
		if !alive {
			for _, c := range r.cpus {
				if f := c.Context().Fault; f != "" {
					t.Fatalf("cpu fault: %s", f)
				}
			}
			return cyc
		}
	}
	t.Fatalf("did not halt in %d cycles", maxCycles)
	return 0
}

func TestIntegerArithmetic(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.LI(asm.R1, 100)
	b.LI(asm.R2, -7)
	b.ADD(asm.R3, asm.R1, asm.R2)  // 93
	b.SUB(asm.R4, asm.R1, asm.R2)  // 107
	b.MUL(asm.R5, asm.R1, asm.R2)  // -700
	b.DIV(asm.R6, asm.R1, asm.R2)  // -14
	b.REM(asm.R7, asm.R1, asm.R2)  // 2
	b.SLT(asm.R8, asm.R2, asm.R1)  // 1
	b.SLTU(asm.R9, asm.R2, asm.R1) // 0 (0xfffffff9 > 100 unsigned)
	b.SLLI(asm.R10, asm.R1, 3)     // 800
	b.SRAI(asm.R11, asm.R2, 1)     // -4
	b.SRLI(asm.R12, asm.R2, 28)    // 0xf
	b.XORI(asm.R13, asm.R1, 0xff)  // 100^255 = 155
	b.NOR(asm.R14, asm.R1, asm.R2) // ^(100 | -7)
	b.LA(asm.R20, "out")
	for i := 0; i < 12; i++ {
		b.SW(asm.Reg(3+i), int32(4*i), asm.R20)
	}
	b.HALT()
	b.AlignData(4)
	b.DataLabel("out")
	b.Zero(48)

	r := newRig(t, b, 1, nil)
	r.run(t, 100000)
	out := r.prog.Addr("out")
	neg := func(v int32) uint32 { return uint32(v) }
	want := []uint32{93, 107, neg(-700), neg(-14), 2, 1, 0, 800,
		neg(-4), 0xf, 155, ^(uint32(100) | uint32(0xfffffff9))}
	for i, w := range want {
		if got := r.img.Read32(out + uint32(4*i)); got != w {
			t.Errorf("out[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..100 with a loop; store to "sum".
	b := asm.NewBuilder()
	b.Label("start")
	b.LI(asm.R1, 0)   // sum
	b.LI(asm.R2, 1)   // i
	b.LI(asm.R3, 100) // limit
	b.Label("loop")
	b.ADD(asm.R1, asm.R1, asm.R2)
	b.ADDI(asm.R2, asm.R2, 1)
	b.BLE(asm.R2, asm.R3, "loop")
	b.LA(asm.R4, "sum")
	b.SW(asm.R1, 0, asm.R4)
	b.HALT()
	b.AlignData(4)
	b.DataLabel("sum")
	b.Word32(0)

	r := newRig(t, b, 1, nil)
	r.run(t, 100000)
	if got := r.img.Read32(r.prog.Addr("sum")); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestFunctionCallsAndStack(t *testing.T) {
	// Recursive factorial(8) via JAL/JR with stack frames.
	b := asm.NewBuilder()
	b.Label("start")
	b.LI(asm.A0, 8)
	b.JAL("fact")
	b.LA(asm.R9, "result")
	b.SW(asm.RV, 0, asm.R9)
	b.HALT()

	b.Label("fact")
	b.LI(asm.RV, 1)
	b.BLE(asm.A0, asm.RV, "fact_ret") // n <= 1 -> 1
	b.Prologue(16)
	b.SW(asm.A0, 0, asm.SP)
	b.ADDI(asm.A0, asm.A0, -1)
	b.JAL("fact")
	b.LW(asm.A0, 0, asm.SP)
	b.MUL(asm.RV, asm.RV, asm.A0)
	b.Epilogue(16)
	b.Label("fact_ret")
	b.RET()

	b.AlignData(4)
	b.DataLabel("result")
	b.Word32(0)

	r := newRig(t, b, 1, nil)
	r.run(t, 100000)
	if got := r.img.Read32(r.prog.Addr("result")); got != 40320 {
		t.Errorf("8! = %d, want 40320", got)
	}
}

func TestFloatingPoint(t *testing.T) {
	// Dot product of two small vectors, double precision, plus an SP op
	// and conversions.
	b := asm.NewBuilder()
	b.Label("start")
	b.LA(asm.R1, "va")
	b.LA(asm.R2, "vb")
	b.LI(asm.R3, 4) // length
	b.LI(asm.R4, 0) // i
	b.CVTIF(asm.F0, asm.R0)
	b.Label("loop")
	b.SLLI(asm.R5, asm.R4, 3)
	b.ADD(asm.R6, asm.R1, asm.R5)
	b.ADD(asm.R7, asm.R2, asm.R5)
	b.LD(asm.F1, 0, asm.R6)
	b.LD(asm.F2, 0, asm.R7)
	b.FMULD(asm.F3, asm.F1, asm.F2)
	b.FADDD(asm.F0, asm.F0, asm.F3)
	b.ADDI(asm.R4, asm.R4, 1)
	b.BLT(asm.R4, asm.R3, "loop")
	b.LA(asm.R8, "dot")
	b.SD(asm.F0, 0, asm.R8)
	// Truncate to int and store.
	b.CVTFI(asm.R9, asm.F0)
	b.LA(asm.R10, "doti")
	b.SW(asm.R9, 0, asm.R10)
	// Compare: dot >= 10.0?
	b.LA(asm.R11, "ten")
	b.LD(asm.F4, 0, asm.R11)
	b.FLE(asm.R12, asm.F4, asm.F0)
	b.LA(asm.R13, "ge10")
	b.SW(asm.R12, 0, asm.R13)
	b.HALT()

	b.DataLabel("va")
	b.Float64(1.5, 2.0, -3.0, 4.25)
	b.DataLabel("vb")
	b.Float64(2.0, 0.5, 1.0, 2.0)
	b.DataLabel("ten")
	b.Float64(10.0)
	b.AlignData(8)
	b.DataLabel("dot")
	b.Float64(0)
	b.AlignData(4)
	b.DataLabel("doti")
	b.Word32(0)
	b.DataLabel("ge10")
	b.Word32(0)

	r := newRig(t, b, 1, nil)
	r.run(t, 100000)
	want := 1.5*2.0 + 2.0*0.5 + -3.0*1.0 + 4.25*2.0 // 9.5
	if got := r.img.ReadF64(r.prog.Addr("dot")); got != want {
		t.Errorf("dot = %v, want %v", got, want)
	}
	if got := r.img.Read32(r.prog.Addr("doti")); got != 9 {
		t.Errorf("trunc dot = %d, want 9", got)
	}
	if got := r.img.Read32(r.prog.Addr("ge10")); got != 0 {
		t.Errorf("ge10 = %d, want 0", got)
	}
}

func TestLLSCAtomicIncrement(t *testing.T) {
	// Four CPUs each atomically increment a shared counter 500 times.
	const perCPU = 500
	b := asm.NewBuilder()
	b.Label("start")
	b.LA(asm.R1, "counter")
	b.LI(asm.R2, perCPU)
	b.Label("loop")
	b.Label("retry")
	b.LL(asm.R3, 0, asm.R1)
	b.ADDI(asm.R3, asm.R3, 1)
	b.SC(asm.R3, 0, asm.R1)
	b.BEQZ(asm.R3, "retry")
	b.ADDI(asm.R2, asm.R2, -1)
	b.BNEZ(asm.R2, "loop")
	b.HALT()
	b.AlignData(4)
	b.DataLabel("counter")
	b.Word32(0)

	r := newRig(t, b, 4, nil)
	r.run(t, 5_000_000)
	if got := r.img.Read32(r.prog.Addr("counter")); got != 4*perCPU {
		t.Errorf("counter = %d, want %d", got, 4*perCPU)
	}
}

func TestCPUIDDistinguishesCPUs(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.CPUID(asm.R1)
	b.SLLI(asm.R2, asm.R1, 2)
	b.LA(asm.R3, "slots")
	b.ADD(asm.R3, asm.R3, asm.R2)
	b.ADDI(asm.R4, asm.R1, 100)
	b.SW(asm.R4, 0, asm.R3)
	b.HALT()
	b.AlignData(4)
	b.DataLabel("slots")
	b.Zero(16)

	r := newRig(t, b, 4, nil)
	r.run(t, 100000)
	for i := 0; i < 4; i++ {
		if got := r.img.Read32(r.prog.Addr("slots") + uint32(4*i)); got != uint32(100+i) {
			t.Errorf("slot[%d] = %d, want %d", i, got, 100+i)
		}
	}
}

type recordingTrap struct {
	calls []int32
	at    []uint64 // the cycle of each call
}

func (r *recordingTrap) Syscall(now uint64, cpuID int, ctx *cpu.Context, num int32) uint64 {
	r.calls = append(r.calls, num)
	r.at = append(r.at, now)
	ctx.Regs[asm.RV] = uint32(num) * 2
	return 5
}

func TestSyscallTrap(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.SYSCALL(21)
	b.LA(asm.R1, "out")
	b.SW(asm.RV, 0, asm.R1)
	b.HALT()
	b.AlignData(4)
	b.DataLabel("out")
	b.Word32(0)

	tr := &recordingTrap{}
	r := newRig(t, b, 1, tr)
	r.run(t, 100000)
	if len(tr.calls) != 1 || tr.calls[0] != 21 {
		t.Fatalf("trap calls = %v", tr.calls)
	}
	if got := r.img.Read32(r.prog.Addr("out")); got != 42 {
		t.Errorf("syscall result = %d, want 42", got)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.LUI(asm.R1, 0xffff) // far beyond the identity space limit
	b.LW(asm.R2, 0, asm.R1)
	b.HALT()
	p := b.MustAssemble(0, 0x10000)
	img := mem.NewImage(1 << 20)
	p.Load(img, 0)
	cfg := memsys.DefaultConfig()
	sys := memsys.NewSharedMem(cfg)
	ctx := &cpu.Context{Space: mem.Identity{Limit: img.Size()}, PC: p.Addr("start")}
	c := New(0, ctx, sys, sys, newProgSource(p), nil, img, cfg.LineBytes)
	for cyc := uint64(0); cyc < 1000 && !c.Done(); cyc++ {
		c.Tick(cyc)
	}
	if ctx.Fault == "" {
		t.Fatal("expected a fault on unmapped access")
	}
}

func TestStallAccounting(t *testing.T) {
	// One load from a cold line: instruction count exact, D-stall at the
	// memory level present, CPU executed exactly the instructions.
	b := asm.NewBuilder()
	b.Label("start")
	b.LA(asm.R1, "x") // 2 insts
	b.LW(asm.R2, 0, asm.R1)
	b.HALT()
	b.AlignData(4)
	b.DataLabel("x")
	b.Word32(7)

	r := newRig(t, b, 1, nil)
	r.run(t, 100000)
	st := r.cpus[0].Stats()
	if st.Instructions != 4 {
		t.Errorf("instructions = %d, want 4", st.Instructions)
	}
	if st.DStall[memsys.LvlMem] == 0 {
		t.Error("expected memory-level data stall on cold load")
	}
	if st.IStall[memsys.LvlMem] == 0 {
		t.Error("expected memory-level ifetch stall on cold fetch")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (uint64, uint32) {
		b := asm.NewBuilder()
		b.Label("start")
		b.LA(asm.R1, "counter")
		b.LI(asm.R2, 50)
		b.Label("loop")
		b.Label("retry")
		b.LL(asm.R3, 0, asm.R1)
		b.ADDI(asm.R3, asm.R3, 1)
		b.SC(asm.R3, 0, asm.R1)
		b.BEQZ(asm.R3, "retry")
		b.ADDI(asm.R2, asm.R2, -1)
		b.BNEZ(asm.R2, "loop")
		b.HALT()
		b.AlignData(4)
		b.DataLabel("counter")
		b.Word32(0)
		r := newRig(t, b, 4, nil)
		cycles := r.run(t, 1_000_000)
		return cycles, r.img.Read32(r.prog.Addr("counter"))
	}
	c1, v1 := build()
	c2, v2 := build()
	if c1 != c2 || v1 != v2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", c1, v1, c2, v2)
	}
}
