package mxs_test

import (
	"math/rand"
	"testing"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
)

// genProgram builds a random but guaranteed-terminating guest program:
// a few counted loops whose bodies are random ALU operations and
// loads/stores into a scratch region, finishing by dumping the register
// file to memory. The generated control flow exercises the BTB, the
// window, forwarding and the replay machinery; identical final memory
// under Mipsy and MXS is the correctness oracle.
func genProgram(r *rand.Rand) *asm.Builder {
	b := asm.NewBuilder()
	const scratchWords = 256

	// Registers r1..r15 are the random pool; r16+ are loop bookkeeping.
	b.Label("start")
	for i := asm.Reg(1); i <= 15; i++ {
		b.LI(i, int32(r.Intn(1<<16))-1<<15)
	}
	b.LA(asm.R16, "scratch")

	emitRandomOp := func(tag int) {
		rd := asm.Reg(1 + r.Intn(15))
		rs := asm.Reg(1 + r.Intn(15))
		rt := asm.Reg(1 + r.Intn(15))
		switch r.Intn(12) {
		case 0:
			b.ADD(rd, rs, rt)
		case 1:
			b.SUB(rd, rs, rt)
		case 2:
			b.MUL(rd, rs, rt)
		case 3:
			b.DIV(rd, rs, rt) // division by zero is architected as zero
		case 4:
			b.XOR(rd, rs, rt)
		case 5:
			b.SLL(rd, rs, rt)
		case 6:
			b.SRA(rd, rs, rt)
		case 7:
			b.ADDI(rd, rs, int32(r.Intn(2048)-1024))
		case 8:
			b.SLT(rd, rs, rt)
		case 9: // store then reload (exercises forwarding)
			off := int32(4 * r.Intn(scratchWords))
			b.SW(rs, off, asm.R16)
			b.LW(rd, off, asm.R16)
		case 10: // plain store
			off := int32(4 * r.Intn(scratchWords))
			b.SW(rs, off, asm.R16)
		case 11: // plain load
			off := int32(4 * r.Intn(scratchWords))
			b.LW(rd, off, asm.R16)
		}
		_ = tag
	}

	loops := 2 + r.Intn(3)
	for l := 0; l < loops; l++ {
		iters := int32(5 + r.Intn(40))
		b.LI(asm.R17, iters)
		b.Label(loopLabel(l))
		body := 3 + r.Intn(10)
		for i := 0; i < body; i++ {
			emitRandomOp(l*100 + i)
		}
		// A data-dependent forward branch inside the loop.
		rs := asm.Reg(1 + r.Intn(15))
		b.BEQZ(rs, skipLabel(l))
		emitRandomOp(l*100 + 50)
		b.Label(skipLabel(l))
		b.ADDI(asm.R17, asm.R17, -1)
		b.BNEZ(asm.R17, loopLabel(l))
	}

	// Dump the register pool so the oracle sees every live value.
	b.LA(asm.R16, "dump")
	for i := asm.Reg(1); i <= 15; i++ {
		b.SW(i, int32(4*(i-1)), asm.R16)
	}
	b.HALT()

	b.AlignData(4)
	b.DataLabel("scratch")
	b.Zero(4 * scratchWords)
	b.DataLabel("dump")
	b.Zero(4 * 15)
	return b
}

func loopLabel(l int) string { return "L" + string(rune('a'+l)) }
func skipLabel(l int) string { return "S" + string(rune('a'+l)) }

// runModel executes the program under the given CPU model and returns
// the scratch+dump memory contents.
func runModel(t *testing.T, build func() *asm.Builder, model core.CPUModel, arch core.Arch) []uint32 {
	t.Helper()
	p, err := build().Assemble(0x1000, 0x40000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(arch, model, memsys.DefaultConfig(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(p, 0)
	ctx := &cpu.Context{Space: mem.Identity{Limit: m.Img.Size()}, PC: p.Addr("start")}
	ctx.Regs[isa.RegSP] = 0x80000
	m.AddContext(ctx)
	if model == core.ModelMXS {
		checkMasksEveryTick(t, m)
	}
	if _, err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, 256+15)
	for i := range out {
		out[i] = m.Img.Read32(0x40000 + uint32(4*i))
	}
	return out
}

// TestDifferentialRandomPrograms cross-checks the two CPU models on a
// corpus of random programs across all three architectures: the
// out-of-order core must be architecturally indistinguishable from the
// in-order interpreter.
func TestDifferentialRandomPrograms(t *testing.T) {
	const programs = 60
	arches := core.Arches()
	for seed := int64(0); seed < programs; seed++ {
		build := func() *asm.Builder { return genProgram(rand.New(rand.NewSource(seed))) }
		arch := arches[int(seed)%len(arches)]
		a := runModel(t, build, core.ModelMipsy, arch)
		b := runModel(t, build, core.ModelMXS, arch)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d on %s: word %d differs: mipsy=%#x mxs=%#x",
					seed, arch, i, a[i], b[i])
			}
		}
	}
}
