package mxs_test

import (
	"testing"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// runBoth assembles b and runs it on nCPU CPUs under both CPU models on
// the given architecture, returning the two machines for comparison.
func runBoth(t *testing.T, build func() *asm.Builder, nCPU int, arch core.Arch) (mip, mxs *core.Machine) {
	t.Helper()
	run := func(model core.CPUModel) *core.Machine {
		b := build()
		p, err := b.Assemble(0x1000, 0x40000)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMachine(arch, model, memsys.DefaultConfig(), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(p, 0)
		for i := 0; i < nCPU; i++ {
			ctx := &cpu.Context{Space: mem.Identity{Limit: m.Img.Size()}, TID: i, PC: p.Addr("start")}
			ctx.Regs[isa.RegSP] = 0x300000 + uint32(i)*0x10000
			ctx.Regs[asm.A0] = uint32(i)
			m.AddContext(ctx)
		}
		if model == core.ModelMXS {
			checkMasksEveryTick(t, m)
		}
		if _, err := m.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		return m
	}
	return run(core.ModelMipsy), run(core.ModelMXS)
}

// checkSameMemory compares a region of both machines' memories.
func checkSameMemory(t *testing.T, mip, mxs *core.Machine, base, words uint32) {
	t.Helper()
	for i := uint32(0); i < words; i++ {
		a := mip.Img.Read32(base + 4*i)
		b := mxs.Img.Read32(base + 4*i)
		if a != b {
			t.Fatalf("memory differs at %#x: mipsy=%#x mxs=%#x", base+4*i, a, b)
		}
	}
}

func TestMXSMatchesMipsyOnALUProgram(t *testing.T) {
	build := func() *asm.Builder {
		b := asm.NewBuilder()
		b.Label("start")
		b.LI(asm.R1, 0)
		b.LI(asm.R2, 1)
		b.LI(asm.R3, 200)
		b.Label("loop")
		// A dependent chain with branches, multiplies and divides.
		b.MUL(asm.R4, asm.R2, asm.R2)
		b.ADDI(asm.R5, asm.R4, 13)
		b.DIV(asm.R6, asm.R5, asm.R2)
		b.XOR(asm.R1, asm.R1, asm.R6)
		b.ANDI(asm.R7, asm.R2, 3)
		b.BNEZ(asm.R7, "skip")
		b.ADDI(asm.R1, asm.R1, 7)
		b.Label("skip")
		b.ADDI(asm.R2, asm.R2, 1)
		b.BLT(asm.R2, asm.R3, "loop")
		b.LA(asm.R8, "out")
		b.SW(asm.R1, 0, asm.R8)
		b.HALT()
		b.AlignData(4)
		b.DataLabel("out")
		b.Word32(0)
		return b
	}
	mip, mxs := runBoth(t, build, 1, core.SharedMem)
	checkSameMemory(t, mip, mxs, 0x40000, 4)
}

func TestMXSMatchesMipsyOnFPAndCalls(t *testing.T) {
	build := func() *asm.Builder {
		b := asm.NewBuilder()
		b.Label("start")
		b.LA(asm.R16, "vals")
		b.CVTIF(asm.F10, asm.R0)
		b.LI(asm.R17, 24)
		b.LI(asm.R18, 0)
		b.Label("loop")
		b.SLLI(asm.R8, asm.R18, 3)
		b.ADD(asm.R8, asm.R16, asm.R8)
		b.LD(asm.F0, 0, asm.R8)
		b.JAL("fma") // f10 += f0*f0 via a call
		b.ADDI(asm.R18, asm.R18, 1)
		b.BLT(asm.R18, asm.R17, "loop")
		b.LA(asm.R8, "sum")
		b.SD(asm.F10, 0, asm.R8)
		b.CVTFI(asm.R9, asm.F10)
		b.LA(asm.R10, "sumi")
		b.SW(asm.R9, 0, asm.R10)
		b.HALT()
		b.Label("fma")
		b.FMULD(asm.F1, asm.F0, asm.F0)
		b.FADDD(asm.F10, asm.F10, asm.F1)
		b.RET()
		b.DataLabel("vals")
		for i := 0; i < 24; i++ {
			b.Float64(float64(i)*0.75 - 3)
		}
		b.AlignData(8)
		b.DataLabel("sum")
		b.Float64(0)
		b.DataLabel("sumi")
		b.Word32(0)
		return b
	}
	mip, mxs := runBoth(t, build, 1, core.SharedL1)
	// Compare the full data region including the FP sum bits.
	checkSameMemory(t, mip, mxs, 0x40000, 24*2+4)
}

func TestMXSStoreToLoadForwarding(t *testing.T) {
	build := func() *asm.Builder {
		b := asm.NewBuilder()
		b.Label("start")
		b.LA(asm.R1, "buf")
		b.LI(asm.R2, 100)
		b.LI(asm.R5, 0)
		b.Label("loop")
		// Store then immediately load the same word: must forward.
		b.SW(asm.R2, 0, asm.R1)
		b.LW(asm.R3, 0, asm.R1)
		b.ADD(asm.R5, asm.R5, asm.R3)
		b.ADDI(asm.R2, asm.R2, -1)
		b.BNEZ(asm.R2, "loop")
		b.LA(asm.R4, "out")
		b.SW(asm.R5, 0, asm.R4)
		b.HALT()
		b.AlignData(4)
		b.DataLabel("buf")
		b.Word32(0)
		b.DataLabel("out")
		b.Word32(0)
		return b
	}
	mip, mxs := runBoth(t, build, 1, core.SharedMem)
	checkSameMemory(t, mip, mxs, 0x40000, 2)
	// 100+99+...+1 = 5050.
	if got := mxs.Img.Read32(0x40004); got != 5050 {
		t.Errorf("forwarded sum = %d, want 5050", got)
	}
}

func TestMXSLLSCAtomicIncrement(t *testing.T) {
	build := func() *asm.Builder {
		b := asm.NewBuilder()
		b.Label("start")
		b.LA(asm.R1, "counter")
		b.LI(asm.R2, 100)
		b.Label("retry")
		b.LL(asm.R3, 0, asm.R1)
		b.ADDI(asm.R3, asm.R3, 1)
		b.SC(asm.R3, 0, asm.R1)
		b.BEQZ(asm.R3, "retry")
		b.ADDI(asm.R2, asm.R2, -1)
		b.BNEZ(asm.R2, "retry")
		b.HALT()
		b.AlignData(4)
		b.DataLabel("counter")
		b.Word32(0)
		return b
	}
	_, mxs := runBoth(t, build, 4, core.SharedMem)
	if got := mxs.Img.Read32(0x40000); got != 400 {
		t.Errorf("counter = %d, want 400", got)
	}
}

func TestMXSIsFasterThanMipsyOnILP(t *testing.T) {
	// Independent operations: the 2-way OoO core must beat 1-IPC Mipsy.
	build := func() *asm.Builder {
		b := asm.NewBuilder()
		b.Label("start")
		b.LI(asm.R1, 0)
		b.LI(asm.R2, 0)
		b.LI(asm.R3, 0)
		b.LI(asm.R4, 0)
		b.LI(asm.R10, 2000)
		b.Label("loop")
		b.ADDI(asm.R1, asm.R1, 1)
		b.ADDI(asm.R2, asm.R2, 2)
		b.ADDI(asm.R3, asm.R3, 3)
		b.ADDI(asm.R4, asm.R4, 4)
		b.ADDI(asm.R10, asm.R10, -1)
		b.BNEZ(asm.R10, "loop")
		b.HALT()
		return b
	}
	run := func(model core.CPUModel) uint64 {
		b := build()
		p := b.MustAssemble(0x1000, 0x40000)
		m, err := core.NewMachine(core.SharedMem, model, memsys.DefaultConfig(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(p, 0)
		ctx := &cpu.Context{Space: mem.Identity{Limit: m.Img.Size()}, PC: p.Addr("start")}
		ctx.Regs[isa.RegSP] = 0x80000
		m.AddContext(ctx)
		res, err := m.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	mip := run(core.ModelMipsy)
	ooo := run(core.ModelMXS)
	if ooo >= mip {
		t.Errorf("MXS (%d cycles) should beat Mipsy (%d) on ILP code", ooo, mip)
	}
}

func TestMXSRunsWorkloadsCorrectly(t *testing.T) {
	// The ultimate equivalence test: real workloads validate their
	// numeric results against the Go reference under the OoO model too.
	wls := []workload.Workload{
		workload.NewEqntott(workload.EqntottParams{Words: 64, Iters: 12}),
		workload.NewEar(workload.EarParams{Channels: 16, Samples: 30}),
		workload.NewFFT(workload.FFTParams{N: 32, Batches: 4}),
	}
	for _, w := range wls {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			if _, err := workload.Run(w, core.SharedL2, core.ModelMXS, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMXSRunsPmakeWithKernel(t *testing.T) {
	w := workload.NewPmake(workload.PmakeParams{Procs: 5, Funcs: 12, Passes: 2})
	if _, err := workload.Run(w, core.SharedMem, core.ModelMXS, nil); err != nil {
		t.Fatal(err)
	}
}
