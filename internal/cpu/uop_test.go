package cpu_test

import (
	"slices"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// TestPredecodeMatchesPredicates holds the decode table to the isa
// predicates and the Table 1 functions it replaces on the tick paths:
// every opcode, with r0 and a non-zero register in each register field
// (r0 is the one register number that changes Dest and Srcs).
func TestPredecodeMatchesPredicates(t *testing.T) {
	flag := func(u cpu.Uop, f cpu.UopFlags) bool { return u.Flags&f != 0 }
	for op := isa.Op(0); op < isa.NumOps; op++ {
		for regs := 0; regs < 8; regs++ {
			in := isa.Inst{Op: op, Imm: 12}
			if regs&1 != 0 {
				in.R1 = 5
			}
			if regs&2 != 0 {
				in.R2 = 6
			}
			if regs&4 != 0 {
				in.R3 = 7
			}
			u := cpu.Predecode(in)
			if u.Inst != in {
				t.Errorf("%v: Inst is %v", in, u.Inst)
			}
			if want := in.Dest(); u.Dest != want {
				t.Errorf("%v: Dest %d, want %d", in, u.Dest, want)
			}
			if got, want := u.Src[:u.NSrc], in.Srcs(nil); !slices.Equal(got, want) {
				t.Errorf("%v: Src %v, want %v", in, got, want)
			}
			if u.Class != cpu.ClassOf(op) || uint64(u.Lat) != cpu.Latency(op) || uint32(u.Size) != op.MemBytes() {
				t.Errorf("%v: class %d latency %d size %d, want %d %d %d",
					in, u.Class, u.Lat, u.Size, cpu.ClassOf(op), cpu.Latency(op), op.MemBytes())
			}
			for _, c := range []struct {
				name      string
				got, want bool
			}{
				{"load", flag(u, cpu.UopLoad), op.IsLoad()},
				{"store", flag(u, cpu.UopStore), op.IsStore()},
				{"mem", flag(u, cpu.UopMem), op.IsMem()},
				{"control", flag(u, cpu.UopControl), op.IsControl()},
				{"branch", u.Kind == cpu.KindBranch, op.IsBranch()},
				{"serial", flag(u, cpu.UopSerial), op == isa.SYSCALL || op == isa.HALT || op == isa.LL || op == isa.SC},
				{"btb", flag(u, cpu.UopBTB), op.IsBranch() || op == isa.JR || op == isa.JALR},
				{"jump", flag(u, cpu.UopJump), op == isa.J || op == isa.JAL},
				{"fetch-stop", flag(u, cpu.UopFetchStop), op == isa.SYSCALL || op == isa.HALT},
				{"local", flag(u, cpu.UopLocal), !op.IsMem() && op != isa.SYSCALL && op != isa.HALT},
			} {
				if c.got != c.want {
					t.Errorf("%v: %s is %v, want %v", in, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestRegistryTextIsThePredecodedProgram walks every physical address of
// a configured multi-program machine: the one text the registry keeps
// answers InstAt and TextAt alike, and each Uop in it is the predecode
// of its own instruction.
func TestRegistryTextIsThePredecodedProgram(t *testing.T) {
	w, err := workload.NewQuick("pmake")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.SharedMem, core.ModelMipsy, memsys.DefaultConfig(), w.MemBytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Configure(m); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for a := uint32(0); a < w.MemBytes(); a += 4 {
		in, ok := m.Code.InstAt(a)
		text, base, inText := m.Code.TextAt(a)
		if ok != inText {
			t.Fatalf("%#x: InstAt says %v, TextAt says %v", a, ok, inText)
		}
		if !ok {
			continue
		}
		seen++
		if u := text[(a-base)/4]; u.Inst != in || u != cpu.Predecode(in) {
			t.Fatalf("%#x: InstAt is %v, the text holds %+v", a, in, u)
		}
	}
	if seen == 0 {
		t.Fatal("no text address found")
	}
}
