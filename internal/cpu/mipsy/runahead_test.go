package mipsy

// Tests of the run-ahead in Tick on a hand-assembled rig: one CPU, a
// flat memory whose latencies the test chooses, and an interrupt source
// whose line and run-ahead bound the test sets.

import (
	"fmt"
	"math/rand"
	"testing"

	"cmpsim/internal/asm"
	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
)

const lineBytes = 32 // eight instructions to a fetch line

// flatMem answers every data reference after dataLat cycles and every
// instruction fetch after fetchLat, and counts its calls.
type flatMem struct {
	dataLat, fetchLat uint64
	accesses, fetches int
}

func (m *flatMem) Name() string { return "flat" }
func (m *flatMem) Access(now uint64, _ int, _ uint32, _ bool) (memsys.Result, bool) {
	m.accesses++
	return memsys.Result{Done: now + m.dataLat, Level: memsys.LvlL1}, true
}
func (m *flatMem) IFetch(now uint64, _ int, _ uint32) memsys.Result {
	m.fetches++
	return memsys.Result{Done: now + m.fetchLat, Level: memsys.LvlL1}
}
func (m *flatMem) LLReserve(int, uint32)    {}
func (m *flatMem) SCCheck(int, uint32) bool { return true }
func (m *flatMem) ClearReservation(int)     {}
func (m *flatMem) Report() memsys.Report    { return memsys.Report{} }

// boundSource is the rig's cpu.InterruptSource.
type boundSource struct {
	live  bool
	bound uint64
	acks  int
}

func (s *boundSource) PendingInterrupt(int) bool { return s.live }
func (s *boundSource) AckInterrupt(int)          { s.live = false; s.acks++ }
func (s *boundSource) RunAheadBound() uint64     { return s.bound }

type aheadRig struct {
	c    *CPU
	mem  *flatMem
	trap *recordingTrap
}

// newAheadRig assembles b (text at 0, so "start" opens a fetch line) and
// builds one CPU on a flat memory. src may be nil: no interrupt source,
// as on the older rigs.
func newAheadRig(tb testing.TB, b *asm.Builder, m *flatMem, src *boundSource) *aheadRig {
	tb.Helper()
	p, err := b.Assemble(0, 0x10000)
	if err != nil {
		tb.Fatal(err)
	}
	img := mem.NewImage(1 << 20)
	p.Load(img, 0)
	ctx := &cpu.Context{Space: mem.Identity{Limit: img.Size()}, PC: p.Addr("start")}
	tr := &recordingTrap{}
	c := New(0, ctx, m, newProgSource(p), tr, img, lineBytes)
	if src != nil {
		c.SetInterruptSource(src)
	}
	return &aheadRig{c: c, mem: m, trap: tr}
}

func (r *aheadRig) insts() uint64 { return r.c.Stats().Instructions }

const far = uint64(1) << 40

// TestRunAheadStops: with the bound out of reach, one Tick executes the
// run of CPU-local instructions up to, and not including, the first
// instruction that needs anything outside the CPU; the next Tick, at the
// returned wake cycle, executes that one.
func TestRunAheadStops(t *testing.T) {
	cases := []struct {
		name string
		// emit writes what follows two ADDIs at the head of the line.
		emit     func(b *asm.Builder)
		wantRun  uint64 // instructions the first Tick executes
		wantPC   uint32 // PC after it
		stopsFor string // what the second Tick must do: "access", "trap", "halt", "fetch"
	}{
		{"load", func(b *asm.Builder) { b.LW(asm.R3, 0, asm.R0) }, 2, 8, "access"},
		{"store", func(b *asm.Builder) { b.SW(asm.R3, 0, asm.R0) }, 2, 8, "access"},
		{"load-linked", func(b *asm.Builder) { b.LL(asm.R3, 0, asm.R0) }, 2, 8, "access"},
		{"store-conditional", func(b *asm.Builder) { b.SC(asm.R3, 0, asm.R0) }, 2, 8, "access"},
		{"syscall", func(b *asm.Builder) { b.SYSCALL(7) }, 2, 8, "trap"},
		{"halt", func(b *asm.Builder) { b.HALT() }, 2, 8, "halt"},
		{"next fetch line", func(b *asm.Builder) {
			for i := 0; i < 10; i++ {
				b.ADDI(asm.R2, asm.R2, 1)
			}
		}, lineBytes / 4, lineBytes, "fetch"},
		{"taken branch out of the line", func(b *asm.Builder) {
			b.J("out")
			for i := 0; i < 9; i++ {
				b.NOP()
			}
			b.Label("out")
			b.NOP()
		}, 3, 12 * 4, "fetch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.NewBuilder()
			b.Label("start")
			b.ADDI(asm.R1, asm.R1, 1)
			b.ADDI(asm.R1, asm.R1, 1)
			tc.emit(b)
			b.HALT()
			r := newAheadRig(t, b, &flatMem{dataLat: 1, fetchLat: 1}, &boundSource{bound: far})
			w := r.c.Tick(0)
			if got := r.insts(); got != tc.wantRun {
				t.Fatalf("first Tick executed %d instructions, want %d", got, tc.wantRun)
			}
			if pc := r.c.Context().PC; pc != tc.wantPC {
				t.Errorf("PC after the run = %#x, want %#x", pc, tc.wantPC)
			}
			if w != tc.wantRun || w != r.c.NextWork(0) {
				t.Errorf("Tick returned %d, NextWork(0) = %d, want %d: one cycle per instruction", w, r.c.NextWork(0), tc.wantRun)
			}
			if r.mem.accesses != 0 || r.mem.fetches != 1 || len(r.trap.calls) != 0 || r.c.Done() {
				t.Fatalf("the run reached outside the CPU: %d accesses, %d fetches, %d traps, halted %v",
					r.mem.accesses, r.mem.fetches, len(r.trap.calls), r.c.Done())
			}
			r.c.Tick(w)
			switch tc.stopsFor {
			case "access":
				if r.mem.accesses != 1 {
					t.Errorf("second Tick made %d data references, want 1", r.mem.accesses)
				}
			case "trap":
				if len(r.trap.calls) != 1 {
					t.Errorf("second Tick trapped %d times, want once", len(r.trap.calls))
				}
			case "halt":
				if !r.c.Done() {
					t.Error("second Tick did not halt")
				}
			case "fetch":
				if r.mem.fetches != 2 {
					t.Errorf("second Tick made %d fetches in all, want 2", r.mem.fetches)
				}
			}
		})
	}
}

// TestRunAheadStopsAtBound: every run-ahead instruction executes at a
// cycle below the bound, so a bound of now+1 is the one-instruction tick
// and a bound of now+k executes k.
func TestRunAheadStopsAtBound(t *testing.T) {
	for _, k := range []uint64{0, 1, 3, 5} {
		b := asm.NewBuilder()
		b.Label("start")
		for i := 0; i < 7; i++ {
			b.ADDI(asm.R1, asm.R1, 1)
		}
		b.HALT()
		src := &boundSource{}
		r := newAheadRig(t, b, &flatMem{dataLat: 1, fetchLat: 1}, src)
		now := uint64(0)
		for r.insts() < 7 {
			before := r.insts()
			src.bound = now + k
			w := r.c.Tick(now)
			want := min(max(k, 1), 7-before)
			if got := r.insts() - before; got != want {
				t.Fatalf("bound now+%d: Tick(%d) executed %d instructions, want %d", k, now, got, want)
			}
			if w != now+want {
				t.Fatalf("bound now+%d: Tick(%d) returned %d, want %d", k, now, w, now+want)
			}
			now = w
		}
	}
}

// TestRunAheadThroughStall: a memory stall that ends below the bound is
// run through, in the Tick that issued the reference and in a Tick that
// finds the CPU still blocked.
func TestRunAheadThroughStall(t *testing.T) {
	build := func() *asm.Builder {
		b := asm.NewBuilder()
		b.Label("start")
		b.LW(asm.R3, 0, asm.R0)
		b.ADDI(asm.R1, asm.R1, 1)
		b.ADDI(asm.R1, asm.R1, 1)
		b.SW(asm.R1, 0, asm.R0)
		b.HALT()
		return b
	}
	src := &boundSource{bound: far}
	r := newAheadRig(t, build(), &flatMem{dataLat: 6, fetchLat: 1}, src)
	if w := r.c.Tick(0); r.insts() != 3 || w != 8 {
		t.Errorf("issuing Tick: %d instructions, wake %d; want 3 (load and both adds) and 8", r.insts(), w)
	}

	src = &boundSource{bound: 1}
	r = newAheadRig(t, build(), &flatMem{dataLat: 6, fetchLat: 1}, src)
	if w := r.c.Tick(0); r.insts() != 1 || w != 6 {
		t.Fatalf("bounded Tick: %d instructions, wake %d; want the load alone and 6", r.insts(), w)
	}
	src.bound = far
	if w := r.c.Tick(2); r.insts() != 3 || w != 8 {
		t.Errorf("Tick while blocked: %d instructions, wake %d; want 3 and 8", r.insts(), w)
	}
}

// TestLiveLineBlocksRun: a CPU ticked while blocked because its line
// went live must not run ahead: the instruction at nextFree belongs to
// the interrupt, which is delivered there.
func TestLiveLineBlocksRun(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.LW(asm.R3, 0, asm.R0)
	b.ADDI(asm.R1, asm.R1, 1)
	b.ADDI(asm.R1, asm.R1, 1)
	b.HALT()
	src := &boundSource{bound: 1}
	r := newAheadRig(t, b, &flatMem{dataLat: 6, fetchLat: 1}, src)
	r.c.Tick(0)
	src.bound, src.live = far, true
	if w := r.c.Tick(2); r.insts() != 1 || w != 6 {
		t.Fatalf("Tick with the line live: %d instructions, wake %d; want 1 (nothing new) and 6", r.insts(), w)
	}
	r.c.Tick(6)
	if src.acks != 1 || len(r.trap.calls) != 1 || r.trap.calls[0] != cpu.IRQ {
		t.Fatalf("at the end of the stall: %d acks, trap calls %v; want the interrupt", src.acks, r.trap.calls)
	}
	if pc := r.c.Context().PC; pc != 4 {
		t.Errorf("PC at delivery = %#x, want 4 (the first add not yet executed)", pc)
	}
}

// mixProgram is a loop of n random instructions: integer ALU forms over
// R1..R7, forward branches inside the body, and loads from a small
// table, closed by a jump back.
func mixProgram(rng *rand.Rand, n int) *asm.Builder {
	b := asm.NewBuilder()
	reg := func() asm.Reg { return asm.Reg(1 + rng.Intn(7)) }
	b.Label("start")
	for i := 0; i < n; i++ {
		b.Label(fmt.Sprintf("i%d", i))
		switch k := rng.Intn(10); {
		case k < 3:
			b.ADDI(reg(), reg(), int32(rng.Intn(200)-100))
		case k < 4:
			b.ADD(reg(), reg(), reg())
		case k < 5:
			b.XOR(reg(), reg(), reg())
		case k < 6:
			b.SLT(reg(), reg(), reg())
		case k < 7:
			b.SRLI(reg(), reg(), uint8(rng.Intn(5)))
		case k < 8:
			b.BNE(reg(), reg(), fmt.Sprintf("i%d", min(n, i+1+rng.Intn(12))))
		case k < 9:
			b.BLT(reg(), reg(), fmt.Sprintf("i%d", min(n, i+1+rng.Intn(12))))
		default:
			b.LW(reg(), int32(4*rng.Intn(16)), asm.R0)
		}
	}
	b.Label(fmt.Sprintf("i%d", n))
	b.J("start")
	return b
}

// TestRunAheadMatchesReference: on a random ALU/branch/load mix,
// registers, PC, Stats and nextFree after N cycles are those of the
// one-instruction-per-tick CPU, ticked every cycle, whatever the bound;
// Tick's return is NextWork, and the memory system sees the same calls.
func TestRunAheadMatchesReference(t *testing.T) {
	const cycles = 20000
	for seed := int64(1); seed <= 5; seed++ {
		ref := newAheadRig(t, mixProgram(rand.New(rand.NewSource(seed)), 120), &flatMem{dataLat: 3, fetchLat: 2}, nil)
		for now := uint64(0); now < cycles; now++ {
			ref.c.Tick(now)
		}
		for _, window := range []uint64{1, 7, 64, cycles} {
			src := &boundSource{}
			r := newAheadRig(t, mixProgram(rand.New(rand.NewSource(seed)), 120), &flatMem{dataLat: 3, fetchLat: 2}, src)
			ticks := 0
			for now := uint64(0); now < cycles; ticks++ {
				// The bound a scheduler would hand out: the next
				// multiple of window, and never past the end.
				src.bound = min((now/window+1)*window, cycles)
				w := r.c.Tick(now)
				if w != r.c.NextWork(now) || w <= now {
					t.Fatalf("seed %d window %d: Tick(%d) = %d, NextWork = %d", seed, window, now, w, r.c.NextWork(now))
				}
				now = w
			}
			got, want := r.c.Context(), ref.c.Context()
			if got.Regs != want.Regs || got.PC != want.PC {
				t.Errorf("seed %d window %d: registers or PC differ from the reference (PC %#x, want %#x)", seed, window, got.PC, want.PC)
			}
			if r.c.Stats() != ref.c.Stats() || r.c.nextFree != ref.c.nextFree {
				t.Errorf("seed %d window %d: stats %+v nextFree %d, reference %+v %d", seed, window, r.c.Stats(), r.c.nextFree, ref.c.Stats(), ref.c.nextFree)
			}
			if *r.mem != *ref.mem {
				t.Errorf("seed %d window %d: memory calls %+v, reference %+v", seed, window, *r.mem, *ref.mem)
			}
			if window > 1 && ticks >= cycles/2 {
				t.Errorf("seed %d window %d: %d ticks for %d cycles; nothing ran ahead", seed, window, ticks, cycles)
			}
		}
	}
}

// TestDispatchRangesMatchPredicates pins what execute assumes about the
// opcode numbering against the isa predicates (cpu.UopLocal, which ends
// a run-ahead, is pinned by internal/cpu's predecode conformance test).
func TestDispatchRangesMatchPredicates(t *testing.T) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		alu := !op.IsMem() && !op.IsControl() && !op.IsFPOp() && op != isa.SYSCALL && op != isa.HALT && op != isa.CPUID
		if got := op <= isa.SRAI; got != alu {
			t.Errorf("%v: op <= SRAI is %v, integer ALU is %v", op, got, alu)
		}
		if got := op <= isa.SLTU; alu && got != (op.Format() == isa.FormatR) {
			t.Errorf("%v: op <= SLTU is %v, register form is %v", op, got, op.Format() == isa.FormatR)
		}
		if got := op > isa.SRAI && op <= isa.SC; got != op.IsMem() {
			t.Errorf("%v: SRAI < op <= SC is %v, IsMem is %v", op, got, op.IsMem())
		}
		if got := op > isa.SC && op <= isa.BGE; got != op.IsBranch() {
			t.Errorf("%v: SC < op <= BGE is %v, IsBranch is %v", op, got, op.IsBranch())
		}
	}
}

// BenchmarkMipsyTick times the model alone against a one-cycle memory,
// with the bound out of reach: ns/op is host time per instruction over a
// straight-line integer loop, and over the same loop with a load as
// every third instruction (so no run is longer than two). Both must
// stay at 0 allocs/op (CI greps).
func BenchmarkMipsyTick(b *testing.B) {
	for _, bc := range []struct {
		name      string
		loadEvery int
	}{{"alu", 0}, {"load-every-third", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			p := asm.NewBuilder()
			p.Label("start")
			for i := 1; i < 64; i++ {
				if bc.loadEvery != 0 && i%bc.loadEvery == 0 {
					p.LW(asm.R3, int32(4*(i%8)), asm.R0)
				} else {
					p.ADDI(asm.Reg(1+i%2), asm.Reg(1+i%2), 1)
				}
			}
			p.J("start")
			r := newAheadRig(b, p, &flatMem{dataLat: 1, fetchLat: 1}, &boundSource{bound: far})
			b.ReportAllocs()
			b.ResetTimer()
			now := uint64(0)
			for r.insts() < uint64(b.N) {
				now = r.c.Tick(now)
			}
		})
	}
}
