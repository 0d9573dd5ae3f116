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
// instruction fetch after fetchLat, and counts its calls; last is the
// cycle of the last data reference. The refuse data references from
// number refuseFrom on (counted from 1, retries included) are refused,
// as a full MSHR file refuses them.
type flatMem struct {
	dataLat, fetchLat  uint64
	refuseFrom, refuse int
	accesses, fetches  int
	last               uint64

	// tick and shared are the cycle of the Tick under way and the shared
	// bound it was handed, kept up to date by the test that reads
	// outside: the calls made at any other cycle at or past the bound.
	tick, shared uint64
	outside      int
}

func (m *flatMem) order(now uint64) {
	if now != m.tick && now >= m.shared {
		m.outside++
	}
}

func (m *flatMem) Name() string { return "flat" }
func (m *flatMem) Access(now uint64, _ int, _ uint32, _ bool) (memsys.Result, bool) {
	m.accesses++
	m.last = now
	m.order(now)
	if m.accesses >= m.refuseFrom && m.accesses < m.refuseFrom+m.refuse {
		return memsys.Result{Done: now + m.dataLat, Level: memsys.LvlL2}, false
	}
	return memsys.Result{Done: now + m.dataLat, Level: memsys.LvlL1}, true
}
func (m *flatMem) IFetch(now uint64, _ int, _ uint32) memsys.Result {
	m.fetches++
	m.order(now)
	return memsys.Result{Done: now + m.fetchLat, Level: memsys.LvlL1}
}
func (m *flatMem) LLReserve(int, uint32)    {}
func (m *flatMem) SCCheck(int, uint32) bool { return true }
func (m *flatMem) ClearReservation(int)     {}
func (m *flatMem) Report() memsys.Report    { return memsys.Report{} }

// icacheMem is a flatMem behind a private I-cache of fixed contents, the
// lines whose base addresses are in hit. An IFetch from one of them
// takes one cycle and counts in hits; one from any other line misses and
// goes to the flatMem's (fetchLat, counted in its fetches), leaving the
// line out. IFetchHit says which, and ihits counts the times it said hit.
type icacheMem struct {
	*flatMem
	hit         map[uint32]bool
	hits, ihits int
}

func (m *icacheMem) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	if m.hit[addr&^(lineBytes-1)] {
		m.hits++
		return memsys.Result{Done: now + 1, Level: memsys.LvlL1}
	}
	return m.flatMem.IFetch(now, cpu, addr)
}

func (m *icacheMem) IFetchHit(_ int, addr uint32) bool {
	if !m.hit[addr&^(lineBytes-1)] {
		return false
	}
	m.ihits++
	return true
}

// lines returns the set of the first n fetch lines, less those in skip.
func lines(n int, skip ...int) map[uint32]bool {
	hit := make(map[uint32]bool)
	for i := 0; i < n; i++ {
		hit[uint32(i*lineBytes)] = true
	}
	for _, i := range skip {
		delete(hit, uint32(i*lineBytes))
	}
	return hit
}

// boundSource is the rig's cpu.InterruptSource: the test sets the line,
// the run-ahead bound and the shared bound, and reads how often the CPU
// asked for the shared one.
type boundSource struct {
	live          bool
	bound, shared uint64
	acks, asks    int
}

func (s *boundSource) Line(int) *bool         { return &s.live }
func (s *boundSource) AckInterrupt(int)       { s.live = false; s.acks++ }
func (s *boundSource) RunAheadBound() uint64  { return s.bound }
func (s *boundSource) SharedBound(int) uint64 { s.asks++; return s.shared }

type aheadRig struct {
	c    *CPU
	mem  *flatMem
	ic   *icacheMem // nil on a rig without an I-cache
	trap *recordingTrap
	now  uint64 // the next cycle tickTo ticks
}

// newAheadRig assembles b (text at 0, so "start" opens a fetch line) and
// builds one CPU on a flat memory. src may be nil: no interrupt source,
// as on the older rigs.
func newAheadRig(tb testing.TB, b *asm.Builder, m *flatMem, src *boundSource) *aheadRig {
	r := &aheadRig{mem: m}
	r.build(tb, b, m, nil, src)
	return r
}

// newICacheRig is newAheadRig with m behind an I-cache holding the lines
// in hit (icacheMem).
func newICacheRig(tb testing.TB, b *asm.Builder, m *flatMem, hit map[uint32]bool, src *boundSource) *aheadRig {
	r := &aheadRig{mem: m, ic: &icacheMem{flatMem: m, hit: hit}}
	r.build(tb, b, r.ic, r.ic, src)
	return r
}

func (r *aheadRig) build(tb testing.TB, b *asm.Builder, sys memsys.System, ihit memsys.IFetchHitter, src *boundSource) {
	tb.Helper()
	p, err := b.Assemble(0, 0x10000)
	if err != nil {
		tb.Fatal(err)
	}
	img := mem.NewImage(1 << 20)
	p.Load(img, 0)
	ctx := &cpu.Context{Space: mem.Identity{Limit: img.Size()}, PC: p.Addr("start")}
	r.trap = &recordingTrap{}
	r.c = New(0, ctx, sys, ihit, newProgSource(p), r.trap, img, lineBytes)
	if src != nil {
		r.c.SetInterruptSource(src)
	}
}

func (r *aheadRig) insts() uint64 { return r.c.stats.Instructions }

// tickTo ticks the rig's CPU at every cycle below w it has not ticked:
// the reference the run-ahead is held to.
func (r *aheadRig) tickTo(w uint64) {
	for ; r.now < w; r.now++ {
		r.mem.tick = r.now
		r.c.Tick(r.now)
	}
}

// sameAsReference reports where r differs from ref, a rig of the same
// program with no interrupt source, ticked every cycle below w:
// registers, PC, Stats, nextFree, the memory system's calls and the
// I-cache's hits.
func sameAsReference(t *testing.T, r, ref *aheadRig, w uint64) {
	t.Helper()
	ref.tickTo(w)
	if got, want := r.c.Context(), ref.c.Context(); got.Regs != want.Regs || got.PC != want.PC {
		t.Errorf("registers or PC differ from the reference (PC %#x, want %#x)", got.PC, want.PC)
	}
	if r.c.Stats() != ref.c.Stats() || r.c.nextFree != ref.c.nextFree {
		t.Errorf("stats %+v nextFree %d, reference %+v %d", r.c.Stats(), r.c.nextFree, ref.c.Stats(), ref.c.nextFree)
	}
	if got, want := [3]uint64{uint64(r.mem.accesses), uint64(r.mem.fetches), r.mem.last},
		[3]uint64{uint64(ref.mem.accesses), uint64(ref.mem.fetches), ref.mem.last}; got != want {
		t.Errorf("memory calls (data references, missed fetches, cycle of the last reference) %v, reference %v", got, want)
	}
	if r.ic != nil && r.ic.hits != ref.ic.hits {
		t.Errorf("%d I-cache hits, reference %d", r.ic.hits, ref.ic.hits)
	}
}

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

// TestRunAheadMatchesReference: on a random ALU/branch/load mix over a
// memory that refuses a few references, registers, PC, Stats and
// nextFree after N cycles are those of the CPU without an interrupt
// source, which runs only the instruction at its tick's own cycle,
// ticked every cycle, whatever the bound, whether the shared bound
// allows nothing or reaches the bound, and whether the memory has an
// I-cache that holds two lines in three; Tick's return is NextWork, and
// the memory system sees the same calls. Neither CPU makes a data
// reference or a missed fetch at a cycle other than its tick's unless
// the shared bound is above it: the instruction after a missed line
// waits for the tick at its own cycle like any other.
func TestRunAheadMatchesReference(t *testing.T) {
	const cycles = 20000
	newMem := func() *flatMem { return &flatMem{dataLat: 3, fetchLat: 2, refuseFrom: 40, refuse: 5} }
	hit := lines(16, 2, 5, 8, 11, 14)
	newRig := func(seed int64, icache bool, src *boundSource) *aheadRig {
		b := mixProgram(rand.New(rand.NewSource(seed)), 120)
		if icache {
			return newICacheRig(t, b, newMem(), hit, src)
		}
		return newAheadRig(t, b, newMem(), src)
	}
	for seed := int64(1); seed <= 5; seed++ {
		for _, icache := range []bool{false, true} {
			ref := newRig(seed, icache, nil)
			ref.tickTo(cycles)
			for _, shared := range []bool{false, true} {
				for _, window := range []uint64{1, 7, 64, cycles} {
					t.Run(fmt.Sprintf("seed %d window %d shared %v icache %v", seed, window, shared, icache), func(t *testing.T) {
						src := &boundSource{}
						r := newRig(seed, icache, src)
						ticks := 0
						for now := uint64(0); now < cycles; ticks++ {
							// The bound a scheduler would hand out: the next
							// multiple of window, and never past the end.
							src.bound = min((now/window+1)*window, cycles)
							if shared {
								src.shared = src.bound
							}
							r.mem.tick, r.mem.shared = now, src.shared
							w := r.c.Tick(now)
							if w != r.c.NextWork(now) || w <= now {
								t.Fatalf("Tick(%d) = %d, NextWork = %d", now, w, r.c.NextWork(now))
							}
							now = w
						}
						sameAsReference(t, r, ref, cycles)
						if r.mem.outside != 0 || ref.mem.outside != 0 {
							t.Errorf("%d calls (reference: %d) made outside their tick's cycle at or past the shared bound", r.mem.outside, ref.mem.outside)
						}
						if window > 1 && ticks >= cycles/2 {
							t.Errorf("%d ticks for %d cycles; nothing ran ahead", ticks, cycles)
						}
						if shared && window == cycles && ticks != 1 {
							t.Errorf("%d ticks; a shared bound at the end of the run leaves one", ticks)
						}
						if icache && window > 1 && r.ic.ihits == 0 {
							t.Errorf("no run crossed a line on an I-cache hit")
						}
					})
				}
			}
		}
	}
}

// TestSharedRun: below the shared bound one Tick goes on through loads,
// a store, LL, SC, a reference refused twice and a missed fetch line,
// each at its own cycle (after the miss, the cycle before the line
// arrives), the one the CPU without an interrupt source runs it at in a
// tick of its own, and stops before a SYSCALL or HALT that opens a
// line, without fetching that line. With
// the shared bound at the next cycle, a run crosses the lines that hit
// the CPU's I-cache and stops at one that misses, without fetching it.
// What a run leaves (registers, PC, Stats, nextFree, the memory
// system's calls) is the reference's, ticked every cycle up to the run's
// wake cycle.
func TestSharedRun(t *testing.T) {
	for _, stop := range []struct {
		name string
		emit func(b *asm.Builder)
	}{
		{"syscall", func(b *asm.Builder) { b.SYSCALL(7) }},
		{"halt", func(b *asm.Builder) { b.HALT() }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			build := func() *asm.Builder {
				b := asm.NewBuilder()
				b.Label("start")
				b.ADDI(asm.R1, asm.R1, 5)
				b.SW(asm.R1, 0, asm.R0)
				b.LW(asm.R3, 0, asm.R0)
				b.LL(asm.R4, 4, asm.R0)
				b.ADDI(asm.R4, asm.R4, 1)
				b.SC(asm.R4, 4, asm.R0)
				b.LB(asm.R5, 0, asm.R0) // refused twice
				for i := 7; i < 2*lineBytes/4; i++ {
					b.ADDI(asm.R2, asm.R2, 1)
				}
				stop.emit(b) // first instruction of the third line
				return b
			}
			// Refusals 5 and 6 are the first two tries of the LB.
			newMem := func() *flatMem { return &flatMem{dataLat: 4, fetchLat: 3, refuseFrom: 5, refuse: 2} }
			src := &boundSource{bound: far, shared: far}
			r := newAheadRig(t, build(), newMem(), src)
			w := r.c.Tick(0)
			if pc := r.c.Context().PC; pc != 2*lineBytes {
				t.Fatalf("PC after the run = %#x, want %#x (the %s)", pc, 2*lineBytes, stop.name)
			}
			if r.mem.fetches != 2 || len(r.trap.calls) != 0 || r.c.Done() {
				t.Errorf("the run went past its end: %d fetches (want 2), %d traps, halted %v", r.mem.fetches, len(r.trap.calls), r.c.Done())
			}
			if r.mem.accesses != 7 || src.asks != 1 {
				t.Errorf("%d data references (want 5 and 2 refusals), %d shared-bound asks (want 1)", r.mem.accesses, src.asks)
			}

			if w != r.c.nextFree {
				t.Errorf("wake %d, nextFree %d", w, r.c.nextFree)
			}
			sameAsReference(t, r, newAheadRig(t, build(), newMem(), nil), w)
			if got := r.c.Stats().DStall[memsys.LvlL2]; got != 2 {
				t.Errorf("DStall[L2] = %d, want 2: one cycle per refused try", got)
			}
		})
	}

	// Four lines of adds, then a HALT opening the fifth.
	adds := func() *asm.Builder {
		b := asm.NewBuilder()
		b.Label("start")
		for i := 0; i < 4*lineBytes/4; i++ {
			b.ADDI(asm.R1, asm.R1, 1)
		}
		b.HALT()
		return b
	}
	newMem := func() *flatMem { return &flatMem{dataLat: 1, fetchLat: 3} }

	t.Run("icache-hit", func(t *testing.T) {
		// Every line hits: the tick fetches the first, the run crosses the
		// others on IFetchHit up to the run-ahead bound (or the HALT) and
		// never needs the shared bound.
		for _, bound := range []uint64{20, far} {
			src := &boundSource{bound: bound, shared: 1}
			r := newICacheRig(t, adds(), newMem(), lines(5), src)
			w := r.c.Tick(0)
			want := min(bound, 4*lineBytes/4)
			if r.insts() != want || w != want {
				t.Errorf("bound %d: %d instructions, wake %d; want %d", bound, r.insts(), w, want)
			}
			if wantHits := int(want-1) / (lineBytes / 4); r.ic.ihits != wantHits || r.mem.fetches != 0 || src.asks != 0 {
				t.Errorf("bound %d: %d IFetchHit hits (want %d), %d missed fetches, %d shared-bound asks (want 0)",
					bound, r.ic.ihits, wantHits, r.mem.fetches, src.asks)
			}
			sameAsReference(t, r, newICacheRig(t, adds(), newMem(), lines(5), nil), w)
		}
	})

	t.Run("icache-miss", func(t *testing.T) {
		// The third line misses: the run stops at its first instruction
		// without fetching it, and the tick at that cycle fetches it.
		src := &boundSource{bound: far, shared: 1}
		hit := lines(5, 2)
		r := newICacheRig(t, adds(), newMem(), hit, src)
		ref := newICacheRig(t, adds(), newMem(), hit, nil)
		w := r.c.Tick(0)
		if want := uint64(2 * lineBytes / 4); r.insts() != want || w != want {
			t.Errorf("%d instructions, wake %d; want %d", r.insts(), w, want)
		}
		if r.ic.ihits != 1 || r.mem.fetches != 0 || src.asks != 1 {
			t.Errorf("%d IFetchHit hits, %d missed fetches, %d shared-bound asks; want 1, 0, 1", r.ic.ihits, r.mem.fetches, src.asks)
		}
		sameAsReference(t, r, ref, w)
		w = r.c.Tick(w)
		if r.mem.fetches != 1 {
			t.Errorf("the tick at the missed line made %d fetches, want 1", r.mem.fetches)
		}
		sameAsReference(t, r, ref, w)
	})
}

// TestSharedBoundSplitsRun: a reference or a fetch-line end runs only
// below the shared bound, a CPU-local instruction up to the run-ahead
// bound past it, and the shared bound is asked for once, only by a run
// that reaches an instruction needing it.
func TestSharedBoundSplitsRun(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.LW(asm.R3, 0, asm.R0) // cycle 0, the tick's own
	b.ADDI(asm.R1, asm.R1, 1)
	b.ADDI(asm.R1, asm.R1, 1)
	b.ADDI(asm.R1, asm.R1, 1)
	b.LW(asm.R3, 0, asm.R0) // cycle 4
	for i := 5; i < 16; i++ {
		b.ADDI(asm.R1, asm.R1, 1) // the one at cycle 8 opens a line
	}
	b.HALT()
	for _, tc := range []struct {
		bound, shared uint64
		wantRun       uint64 // instructions, and so the wake cycle
		wantAccesses  int
		wantFetches   int
		wantAsks      int
	}{
		{3, far, 3, 1, 1, 0},   // the local bound ends the run before it needs the shared one
		{12, 0, 4, 1, 1, 1},    // no shared bound: the run stops at the second load
		{12, 4, 4, 1, 1, 1},    // the load's cycle is the bound: stop
		{12, 5, 8, 2, 1, 1},    // the load runs, the adds after it run past the shared bound
		{12, 9, 12, 2, 2, 1},   // so does the line end; the run-ahead bound ends it
		{12, far, 12, 2, 2, 1}, // and a shared bound past it changes nothing
	} {
		src := &boundSource{bound: tc.bound, shared: tc.shared}
		r := newAheadRig(t, b, &flatMem{dataLat: 1, fetchLat: 1}, src)
		w := r.c.Tick(0)
		if r.insts() != tc.wantRun || w != tc.wantRun {
			t.Errorf("bound %d shared %d: %d instructions, wake %d; want %d", tc.bound, tc.shared, r.insts(), w, tc.wantRun)
		}
		if r.mem.accesses != tc.wantAccesses || r.mem.fetches != tc.wantFetches || src.asks != tc.wantAsks {
			t.Errorf("bound %d shared %d: %d accesses, %d fetches, %d asks; want %d, %d, %d", tc.bound, tc.shared,
				r.mem.accesses, r.mem.fetches, src.asks, tc.wantAccesses, tc.wantFetches, tc.wantAsks)
		}
	}
}

// TestMissedLineWaits: a fetch that misses only moves the instruction
// to the cycle before its line arrives, 4 here, and the rule that lets
// a later instruction run is applied there. A load runs in the tick that
// took the miss only if the shared bound is above 4; otherwise the tick
// at 4 issues it, at 4.
func TestMissedLineWaits(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.LW(asm.R3, 0, asm.R0)
	b.HALT()
	for _, tc := range []struct {
		shared   uint64
		inMiss   bool   // the load runs in the tick that took the miss
		wantWake uint64 // that tick's wake cycle
	}{
		{1, false, 4},
		{4, false, 4},
		{5, true, 5},
		{far, true, 5},
	} {
		src := &boundSource{bound: far, shared: tc.shared}
		r := newAheadRig(t, b, &flatMem{dataLat: 1, fetchLat: 5}, src)
		w := r.c.Tick(0)
		if r.mem.fetches != 1 || w != tc.wantWake || (r.mem.accesses == 1) != tc.inMiss {
			t.Fatalf("shared bound %d: Tick(0) made %d fetches and %d data references, wake %d; want 1, load issued %v, wake %d",
				tc.shared, r.mem.fetches, r.mem.accesses, w, tc.inMiss, tc.wantWake)
		}
		if !tc.inMiss {
			if w = r.c.Tick(w); r.mem.accesses != 1 || r.mem.fetches != 1 || w != 5 {
				t.Fatalf("shared bound %d: Tick(4) made %d data references and %d fetches in all, wake %d; want 1, 1 and 5",
					tc.shared, r.mem.accesses, r.mem.fetches, w)
			}
		}
		if r.mem.last != 4 || r.c.Stats().IStall[memsys.LvlL1] != 4 {
			t.Errorf("shared bound %d: load issued at %d with %d I-stall cycles; want 4 and 4", tc.shared, r.mem.last, r.c.Stats().IStall[memsys.LvlL1])
		}
		sameAsReference(t, r, newAheadRig(t, b, &flatMem{dataLat: 1, fetchLat: 5}, nil), w)
	}
}

// TestMissedLineTrapWaits: a SYSCALL whose line missed traps in the tick
// at its own cycle, 4, not in the tick that took the miss, however far
// the bounds reach.
func TestMissedLineTrapWaits(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.SYSCALL(7)
	b.HALT()
	r := newAheadRig(t, b, &flatMem{dataLat: 1, fetchLat: 5}, &boundSource{bound: far, shared: far})
	if w := r.c.Tick(0); w != 4 || len(r.trap.calls) != 0 {
		t.Fatalf("Tick(0): wake %d, trap calls %v; want 4 and none", w, r.trap.calls)
	}
	r.c.Tick(4)
	if len(r.trap.calls) != 1 || r.trap.calls[0] != 7 || r.trap.at[0] != 4 {
		t.Errorf("trap calls %v at cycles %v, want [7] at [4]", r.trap.calls, r.trap.at)
	}
}

// TestLineLiveDuringFetch: an interrupt line that goes live while a
// missed line is in flight (an event at 2, so the run-ahead bound of the
// tick that took the miss is 2) is taken at the instruction's cycle,
// before the instruction, which then runs after the handler.
func TestLineLiveDuringFetch(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.ADDI(asm.R1, asm.R1, 1)
	b.HALT()
	src := &boundSource{bound: 2, shared: 2}
	r := newAheadRig(t, b, &flatMem{dataLat: 1, fetchLat: 5}, src)
	if w := r.c.Tick(0); w != 4 || r.insts() != 0 {
		t.Fatalf("Tick(0): wake %d, %d instructions; want 4 and none", w, r.insts())
	}
	src.live, src.bound, src.shared = true, 5, 5
	if w := r.c.Tick(2); w != 4 || src.acks != 0 {
		t.Fatalf("Tick(2) with the line live: wake %d, %d acks; want 4 and none", w, src.acks)
	}
	r.c.Tick(4)
	if len(r.trap.calls) != 1 || r.trap.calls[0] != cpu.IRQ || r.trap.at[0] != 4 || r.insts() != 0 || r.c.Context().PC != 0 {
		t.Fatalf("Tick(4): trap calls %v at %v, %d instructions, PC %#x; want the interrupt at 4 and the add not yet run",
			r.trap.calls, r.trap.at, r.insts(), r.c.Context().PC)
	}
	// The handler took 5 cycles and dropped the fetch line: the add's line
	// is fetched again at 10 and the add runs at 14.
	src.bound, src.shared = far, far
	if w := r.c.Tick(10); w != 15 || r.insts() != 1 || r.mem.fetches != 2 {
		t.Errorf("Tick(10): wake %d, %d instructions, %d fetches; want 15, 1 and 2", w, r.insts(), r.mem.fetches)
	}
}

// TestExecuteCoversEveryKind: execute switches on cpu.Kind, so the kind
// every opcode decodes to needs a case; each opcode, executed alone,
// retires one instruction. What the cases compute is
// TestISAConformance's business.
func TestExecuteCoversEveryKind(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("start")
	b.HALT()
	for op := isa.Op(0); op < isa.NumOps; op++ {
		u := cpu.Predecode(isa.Inst{Op: op, R1: 1, R2: 2, R3: 3})
		r := newAheadRig(t, b, &flatMem{dataLat: 1, fetchLat: 1}, nil)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%v (kind %d): %v", op, u.Kind, p)
				}
			}()
			r.c.execute(0, 0, &u)
		}()
		if r.insts() != 1 {
			t.Errorf("%v (kind %d) retired %d instructions, want 1", op, u.Kind, r.insts())
		}
	}
}

// BenchmarkMipsyTick times the model alone against a one-cycle memory:
// ns/op is host time per instruction, ticks/inst how many Tick calls
// that took. "alu" is a straight-line integer loop over eight fetch
// lines and "load-every-third" the same loop with a load as every third
// instruction, both with the run-ahead bound out of reach and no shared
// bound, so no run crosses a line end or, in the second, is longer than
// two; "load-every-third-shared" is the second with the shared bound at
// the run-ahead bound, 64 cycles past each tick, so runs cross the loads
// and line ends. "alu-lines-icache" is the first behind an I-cache that
// holds all eight lines, with the run-ahead bound 64 cycles past each
// tick and the shared bound at the next cycle, so runs cross the line
// ends on I-cache hits alone. All must stay at 0 allocs/op (CI greps).
func BenchmarkMipsyTick(b *testing.B) {
	for _, bc := range []struct {
		name      string
		loadEvery int
		shared    bool
		icache    bool
	}{
		{"alu", 0, false, false},
		{"load-every-third", 3, false, false},
		{"load-every-third-shared", 3, true, false},
		{"alu-lines-icache", 0, false, true},
	} {
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
			src := &boundSource{bound: far}
			m := &flatMem{dataLat: 1, fetchLat: 1}
			r := newAheadRig(b, p, m, src)
			if bc.icache {
				r = newICacheRig(b, p, m, lines(8), src)
			}
			b.ReportAllocs()
			b.ResetTimer()
			now, ticks := uint64(0), 0
			for ; r.insts() < uint64(b.N); ticks++ {
				switch {
				case bc.shared:
					src.bound = now + 64
					src.shared = src.bound
				case bc.icache:
					src.bound = now + 64
					src.shared = now + 1
				}
				now = r.c.Tick(now)
			}
			b.ReportMetric(float64(ticks)/float64(r.insts()), "ticks/inst")
		})
	}
}
