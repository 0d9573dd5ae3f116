package core

import (
	"strings"
	"testing"

	"cmpsim/internal/asm"
	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
)

func tinyProgram(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	b.Label("start")
	b.LI(asm.R1, 41)
	b.ADDI(asm.R1, asm.R1, 1)
	b.LA(asm.R2, "out")
	b.SW(asm.R1, 0, asm.R2)
	b.HALT()
	b.AlignData(4)
	b.DataLabel("out")
	b.Word32(0)
	p, err := b.Assemble(0x1000, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestMachine(t *testing.T, a Arch, model CPUModel) *Machine {
	t.Helper()
	m, err := NewMachine(a, model, memsys.DefaultConfig(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func addCtx(m *Machine, pc uint32) *cpu.Context {
	ctx := &cpu.Context{Space: mem.Identity{Limit: m.Img.Size()}, PC: pc}
	ctx.Regs[isa.RegSP] = 0x80000
	m.AddContext(ctx)
	return ctx
}

func TestNewSystemRejectsUnknownArch(t *testing.T) {
	if _, err := NewSystem("nope", memsys.DefaultConfig()); err == nil {
		t.Error("unknown arch should error")
	}
	if _, err := NewMachine("nope", ModelMipsy, memsys.DefaultConfig(), 1<<20); err == nil {
		t.Error("NewMachine with unknown arch should error")
	}
	if _, err := NewMachine(SharedL1, "weird", memsys.DefaultConfig(), 1<<20); err == nil {
		t.Error("NewMachine with unknown model should error")
	}
}

func TestMachineRunsToCompletion(t *testing.T) {
	for _, model := range []CPUModel{ModelMipsy, ModelMXS} {
		m := newTestMachine(t, SharedMem, model)
		p := tinyProgram(t)
		m.LoadProgram(p, 0)
		addCtx(m, p.Addr("start"))
		res, err := m.Run(100000)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Img.Read32(p.Addr("out")); got != 42 {
			t.Errorf("%s: out = %d, want 42", model, got)
		}
		if res.Instructions() == 0 || res.Cycles == 0 || res.IPC() <= 0 {
			t.Errorf("%s: degenerate result %+v", model, res)
		}
	}
}

func TestRunRequiresCPUs(t *testing.T) {
	m := newTestMachine(t, SharedL1, ModelMipsy)
	if _, err := m.Run(100); err == nil {
		t.Error("expected error with no CPUs")
	}
}

func TestRunTimeout(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.Label("forever")
	b.J("forever")
	p := b.MustAssemble(0x1000, 0x4000)
	m := newTestMachine(t, SharedMem, ModelMipsy)
	m.LoadProgram(p, 0)
	addCtx(m, p.Addr("start"))
	_, err := m.Run(1000)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("expected timeout error, got %v", err)
	}
}

func TestRunReportsGuestFault(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.LUI(asm.R1, 0xffff)
	b.LW(asm.R2, 0, asm.R1)
	b.HALT()
	p := b.MustAssemble(0x1000, 0x4000)
	m := newTestMachine(t, SharedMem, ModelMipsy)
	m.LoadProgram(p, 0)
	addCtx(m, p.Addr("start"))
	_, err := m.Run(100000)
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Errorf("expected fault error, got %v", err)
	}
}

func TestCodeRegistryLookup(t *testing.T) {
	var r CodeRegistry
	p1 := tinyProgram(t)
	r.Register(p1, 0)
	r.Register(p1, 0x100000) // a second relocated copy

	in, ok := r.InstAt(0x1000)
	if !ok || in.Op != isa.ADDI {
		t.Errorf("InstAt(base) = %v, %v", in, ok)
	}
	in2, ok := r.InstAt(0x101000)
	if !ok || in2 != in {
		t.Errorf("relocated copy mismatch: %v vs %v", in2, in)
	}
	if _, ok := r.InstAt(0x50000); ok {
		t.Error("lookup outside any program should fail")
	}
	if _, ok := r.InstAt(p1.TextEnd()); ok {
		t.Error("lookup exactly at text end should fail")
	}
	// TextAt hands a core the whole region, which it indexes itself.
	text, base, ok := r.TextAt(0x101004)
	if !ok || base != 0x101000 || len(text) != len(p1.Insts) || text[1].Inst != p1.Insts[1] {
		t.Errorf("TextAt(0x101004) = %d insts at %#x, %v; want %d at 0x101000", len(text), base, ok, len(p1.Insts))
	}
	if _, _, ok := r.TextAt(0x50000); ok {
		t.Error("TextAt outside any program should fail")
	}
}

func TestEventsFireBeforeTicks(t *testing.T) {
	m := newTestMachine(t, SharedMem, ModelMipsy)
	p := tinyProgram(t)
	m.LoadProgram(p, 0)
	addCtx(m, p.Addr("start"))
	var fired []uint64
	m.Events.Schedule(0, func(at uint64) { fired = append(fired, at) })
	m.Events.Schedule(3, func(at uint64) { fired = append(fired, at) })
	if _, err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 3 {
		t.Errorf("events fired = %v", fired)
	}
}

func TestIRQLines(t *testing.T) {
	m := newTestMachine(t, SharedMem, ModelMipsy)
	if m.PendingInterrupt(0) {
		t.Error("irq should start clear")
	}
	m.RaiseIRQ(2)
	if !m.PendingInterrupt(2) || m.PendingInterrupt(1) {
		t.Error("RaiseIRQ wrong line")
	}
	m.AckInterrupt(2)
	if m.PendingInterrupt(2) {
		t.Error("Ack did not clear")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		m := newTestMachine(t, SharedL2, ModelMXS)
		p := tinyProgram(t)
		m.LoadProgram(p, 0)
		for i := 0; i < 4; i++ {
			addCtx(m, p.Addr("start"))
		}
		res, err := m.Run(100000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %d vs %d cycles", a, b)
	}
}
