package core

// Scheduler-level tests for the quiescence-skipping cycle loop, using
// stub cores so blocking horizons and tick order are fully controlled.
// The end-to-end output-identity proof lives in the root package's
// skip_test.go; these pin the loop mechanics themselves: rotation
// arbitration at large cycle counts, skip distances, event chains that
// cross a would-be skip window, and sampler boundaries.

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cmpsim/internal/check"
	"cmpsim/internal/cpu"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
)

// stubTick records one executed tick: which core ran at which cycle, in
// service order.
type stubTick struct {
	cycle uint64
	id    int
}

// stubCore is a minimal Core: blocked (a pure no-op, like a Mipsy CPU
// waiting on memory) until blockedUntil, then runnable every cycle.
type stubCore struct {
	id           int
	blockedUntil uint64
	haltAt       uint64 // halt when ticked at or after this cycle (0 = never)
	halted       bool
	log          *[]stubTick
	ctx          cpu.Context
}

func (s *stubCore) Tick(now uint64) uint64 {
	if !s.halted && now >= s.blockedUntil {
		*s.log = append(*s.log, stubTick{now, s.id})
		if s.haltAt != 0 && now >= s.haltAt {
			s.halted = true
			s.ctx.Halted = true
		}
	}
	return s.NextWork(now)
}

func (s *stubCore) Done() bool            { return s.halted }
func (s *stubCore) Stats() cpu.StallStats { return cpu.StallStats{} }
func (s *stubCore) Context() *cpu.Context { return &s.ctx }
func (s *stubCore) FlushFetchBuffer()     {}
func (s *stubCore) NextWork(now uint64) uint64 {
	if s.halted {
		return cpu.NoWork
	}
	if s.blockedUntil > now {
		return s.blockedUntil
	}
	return now
}

// stubMachine builds a Machine around stub cores sharing one tick log.
func stubMachine(cores ...*stubCore) *Machine {
	m := &Machine{}
	for _, c := range cores {
		m.CPUs = append(m.CPUs, c)
	}
	return m
}

// TestRotationOffsetAtLargeCycles pins the arbitration rotation beyond
// 2^32 cycles: the offset must be computed in uint64 (a narrowing
// int(cyc) would skew the rotation wherever int is 32 bits wide).
func TestRotationOffsetAtLargeCycles(t *testing.T) {
	var log []stubTick
	cores := []*stubCore{{id: 0, log: &log}, {id: 1, log: &log}, {id: 2, log: &log}}
	m := stubMachine(cores...)
	start := uint64(3)<<32 + 5
	if _, _, err := m.RunWindow(start, 2); err != nil {
		t.Fatal(err)
	}
	var want []stubTick
	for cyc := start; cyc < start+2; cyc++ {
		off := int(cyc % 3)
		for i := 0; i < 3; i++ {
			want = append(want, stubTick{cyc, (i + off) % 3})
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("service order = %v, want %v", log, want)
	}
}

// TestSkipJumpsBlockedWindow: with every core blocked, the loop must
// jump straight to the earliest wake-up cycle — and with NoSkip it must
// grind through every cycle — with identical executed ticks either way.
func TestSkipJumpsBlockedWindow(t *testing.T) {
	run := func(noSkip bool) ([]stubTick, uint64) {
		var log []stubTick
		m := stubMachine(
			&stubCore{id: 0, blockedUntil: 1000, haltAt: 1001, log: &log},
			&stubCore{id: 1, blockedUntil: 1200, haltAt: 1200, log: &log},
		)
		m.Cfg.NoSkip = noSkip
		next, halted, err := m.RunWindow(0, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if !halted {
			t.Fatalf("noSkip=%v: machine should have halted, stopped at %d", noSkip, next)
		}
		return log, m.SkippedCycles()
	}
	skipLog, skipped := run(false)
	refLog, refSkipped := run(true)
	if !reflect.DeepEqual(skipLog, refLog) {
		t.Errorf("executed ticks diverge:\nskip:    %v\nno-skip: %v", skipLog, refLog)
	}
	if refSkipped != 0 {
		t.Errorf("NoSkip run skipped %d cycles, want 0", refSkipped)
	}
	if skipped == 0 {
		t.Error("skipping run reports 0 skipped cycles; the jump never happened")
	}
	// Cycle 0 ticks both blocked cores (no-ops), then the loop may jump
	// to 1000; core 0 runs cycles 1000-1001, core 1 wakes at 1200.
	if len(skipLog) == 0 || skipLog[0].cycle != 1000 {
		t.Fatalf("first executed tick = %+v, want cycle 1000", skipLog[:min(len(skipLog), 1)])
	}
}

// TestEventChainAcrossSkip: an event at cycle N scheduling one at N+k
// must never be jumped over, even when every CPU sleeps far beyond it —
// each executed cycle re-bounds the next jump by Events.NextCycle.
func TestEventChainAcrossSkip(t *testing.T) {
	var log []stubTick
	m := stubMachine(&stubCore{id: 0, blockedUntil: 10000, log: &log})
	var fired []uint64
	m.Events.Schedule(5, func(at uint64) {
		fired = append(fired, at)
		m.Events.Schedule(12, func(at2 uint64) {
			fired = append(fired, at2)
			m.Events.Schedule(40, func(at3 uint64) { fired = append(fired, at3) })
		})
	})
	if _, _, err := m.RunWindow(0, 100); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{5, 12, 40}; !reflect.DeepEqual(fired, want) {
		t.Errorf("events fired at %v, want %v", fired, want)
	}
	// Executed cycles: 0 (window start), 5, 12, 40 — the other 96 skipped.
	if got := m.SkippedCycles(); got != 96 {
		t.Errorf("skipped = %d, want 96", got)
	}
}

// TestRunWindowSteadyStateAllocs pins the scheduler's own steady-state
// path — event drain, the due-CPU tick pass, and the jumpTarget
// verification scan with its jump — at zero allocations per window.
func TestRunWindowSteadyStateAllocs(t *testing.T) {
	var log []stubTick
	m := stubMachine(
		&stubCore{id: 0, blockedUntil: 1 << 62, log: &log},
		&stubCore{id: 1, blockedUntil: 1 << 62, log: &log},
	)
	var win uint64
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := m.RunWindow(win*1000, 1000); err != nil {
			t.Fatal(err)
		}
		win++
	})
	if allocs != 0 {
		t.Errorf("RunWindow steady state = %.1f allocs/op, want 0", allocs)
	}
}

// withMetrics attaches an interval sampler to a hand-built machine the
// way NewMachine does for a configured one.
func withMetrics(m *Machine, interval uint64) {
	m.Cfg.Metrics = obsv.NewMetrics(interval)
	m.Cfg.Metrics.Arm(&m.Events, m.probe)
}

// TestMetricsBoundariesNotSkipped: sampler events bound every jump, so
// the interval time-series has exactly the same sample points with
// skipping as without.
func TestMetricsBoundariesNotSkipped(t *testing.T) {
	var log []stubTick
	m := stubMachine(&stubCore{id: 0, blockedUntil: 60, log: &log})
	m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
	withMetrics(m, 10)
	if _, _, err := m.RunWindow(0, 45); err != nil {
		t.Fatal(err)
	}
	var cycles []uint64
	for _, s := range m.Cfg.Metrics.Samples() {
		cycles = append(cycles, s.End)
	}
	if want := []uint64{10, 20, 30, 40}; !reflect.DeepEqual(cycles, want) {
		t.Errorf("sample cycles = %v, want %v", cycles, want)
	}
}

// TestSamplerWindowEdges: the sample due at a halt cycle is the same
// whichever window the halt lands in. A core halts on its tick at cycle
// 40 with a sample due there; the sample's event, at 41, never runs when
// a window ends right after the halt, and Result takes it instead.
func TestSamplerWindowEdges(t *testing.T) {
	run := func(window uint64) []obsv.Sample {
		var log []stubTick
		m := stubMachine(&stubCore{id: 0, haltAt: 40, log: &log})
		m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
		withMetrics(m, 10)
		var next uint64
		for halted := false; !halted; {
			var err error
			if next, halted, err = m.RunWindow(next, window); err != nil {
				t.Fatal(err)
			}
		}
		return m.Result(next).Metrics.Samples()
	}
	ends := func(ss []obsv.Sample) (e []uint64) {
		for _, s := range ss {
			e = append(e, s.End)
		}
		return e
	}
	want := run(1 << 20)
	if got := ends(want); !reflect.DeepEqual(got, []uint64{10, 20, 30, 40, 41}) {
		t.Fatalf("whole window: sample ends %v, want [10 20 30 40 41]", got)
	}
	for _, window := range []uint64{1, 7, 40, 41} {
		if got := run(window); !reflect.DeepEqual(got, want) {
			t.Errorf("%d-cycle windows: sample ends %v, want %v", window, ends(got), ends(want))
		}
	}
}

// ---- per-CPU wake mechanics ----

// napCore works for one cycle, then sleeps nap cycles (0: works every
// cycle). Unlike stubCore it records every Tick it receives, working or
// not, and every SkipCycles range, so the tests below can say exactly
// which cycles the loop visited it at. It polls its interrupt line the
// way the models do: only when ticked.
type napCore struct {
	id     int
	nap    uint64
	next   uint64 // next working cycle
	haltAt uint64 // halt when working at or after this cycle (0 = never)
	halted bool

	ticks  []uint64    // every cycle Tick was called at
	asked  int         // NextWork calls
	skips  [][2]uint64 // every SkipCycles range
	irqAt  []uint64    // cycles at which the line was found live (and acked)
	order  *[]stubTick // service order shared by the machine's cores
	m      *Machine    // interrupt source; nil for cores without a line
	onWork func(now uint64)
	ctx    cpu.Context
}

func (s *napCore) Tick(now uint64) uint64 {
	s.ticks = append(s.ticks, now)
	if s.order != nil {
		*s.order = append(*s.order, stubTick{now, s.id})
	}
	if s.m != nil && *s.m.Line(s.id) {
		s.m.AckInterrupt(s.id)
		s.irqAt = append(s.irqAt, now)
	}
	if !s.halted && now >= s.next {
		s.next = now + 1 + s.nap
		if s.onWork != nil {
			s.onWork(now)
		}
		if s.haltAt != 0 && now >= s.haltAt {
			s.halted = true
			s.ctx.Halted = true
		}
	}
	return s.wakeCycle(now + 1)
}

func (s *napCore) SkipCycles(from, to uint64) { s.skips = append(s.skips, [2]uint64{from, to}) }
func (s *napCore) Done() bool                 { return s.halted }
func (s *napCore) Stats() cpu.StallStats      { return cpu.StallStats{} }
func (s *napCore) Context() *cpu.Context      { return &s.ctx }
func (s *napCore) FlushFetchBuffer()          {}
func (s *napCore) NextWork(now uint64) uint64 {
	s.asked++
	return s.wakeCycle(now)
}

// wakeCycle is NextWork without the count, for the core's own Tick.
func (s *napCore) wakeCycle(now uint64) uint64 {
	if s.halted {
		return cpu.NoWork
	}
	return max(s.next, now)
}

// napMachine builds a Machine with interrupt lines around nap cores.
func napMachine(cores ...*napCore) *Machine {
	m := &Machine{irq: irqLines{live: make([]bool, len(cores))}}
	for i, c := range cores {
		c.id, c.m = i, m
		m.CPUs = append(m.CPUs, c)
	}
	return m
}

// checkCovered asserts that the core's ticks and SkipCycles ranges
// account for every cycle of [start, end) exactly once, and that each
// range runs from one past a tick to the next tick (or to end).
func checkCovered(t *testing.T, c *napCore, start, end uint64) {
	t.Helper()
	seen := make([]int, end-start)
	for _, at := range c.ticks {
		seen[at-start]++
	}
	ticked := func(at uint64) bool {
		for _, x := range c.ticks {
			if x == at {
				return true
			}
		}
		return false
	}
	for _, r := range c.skips {
		if r[0] >= r[1] {
			t.Errorf("cpu %d: empty or inverted SkipCycles(%d, %d)", c.id, r[0], r[1])
			continue
		}
		if r[0] == start || !ticked(r[0]-1) {
			t.Errorf("cpu %d: SkipCycles(%d, %d) does not start right after a tick", c.id, r[0], r[1])
		}
		if r[1] != end && !ticked(r[1]) {
			t.Errorf("cpu %d: SkipCycles(%d, %d) ends at neither a tick nor the window end", c.id, r[0], r[1])
		}
		for at := r[0]; at < r[1]; at++ {
			seen[at-start]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("cpu %d: cycle %d accounted for %d times, want once", c.id, start+uint64(i), n)
		}
	}
}

// TestStaggeredWakes: two cores that work every cycle and one that
// sleeps 100 cycles at a time, past 2^32. Each core is ticked exactly at
// its own working cycles, the due cores are served in the cycle's
// rotation order, and the sleeper's unticked cycles reach it as
// SkipCycles ranges that tile them exactly.
func TestStaggeredWakes(t *testing.T) {
	const n = 1000
	start := uint64(5)<<32 + 7
	var order []stubTick
	cores := []*napCore{{order: &order}, {order: &order}, {nap: 100, order: &order}}
	m := napMachine(cores...)
	if next, _, err := m.RunWindow(start, n); err != nil || next != start+n {
		t.Fatalf("RunWindow = %d, %v; want %d", next, err, start+n)
	}
	var want []stubTick
	for cyc := start; cyc < start+n; cyc++ {
		off := int(cyc % 3)
		for i := 0; i < 3; i++ {
			id := (i + off) % 3
			if id < 2 || (cyc-start)%101 == 0 {
				want = append(want, stubTick{cyc, id})
			}
		}
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("service order diverges from the rotation over the due cores (%d ticks, want %d)", len(order), len(want))
	}
	for i, wantTicks := range []int{n, n, 10} {
		if got := len(cores[i].ticks); got != wantTicks {
			t.Errorf("cpu %d ticked %d times, want %d", i, got, wantTicks)
		}
		checkCovered(t, cores[i], start, start+n)
	}
	if len(cores[0].skips)+len(cores[1].skips) != 0 {
		t.Error("a core that works every cycle received a SkipCycles range")
	}
	if got := m.SkippedCycles(); got != 0 {
		t.Errorf("skipped = %d, want 0: some core worked on every cycle", got)
	}
}

// TestEventPhaseIRQWakesSleeper: an interrupt raised by an event while
// its target sleeps ticks the target at the event's own cycle, whether
// the rest of the machine is busy or asleep too.
func TestEventPhaseIRQWakesSleeper(t *testing.T) {
	for _, peerNap := range []uint64{0, 10000} {
		peer, sleeper := &napCore{nap: peerNap}, &napCore{nap: 499}
		m := napMachine(peer, sleeper)
		m.Events.Schedule(200, func(uint64) { m.RaiseIRQ(1) })
		if _, _, err := m.RunWindow(0, 600); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{0, 200, 500}; !reflect.DeepEqual(sleeper.ticks, want) {
			t.Errorf("peer nap %d: sleeper ticked at %v, want %v", peerNap, sleeper.ticks, want)
		}
		if want := []uint64{200}; !reflect.DeepEqual(sleeper.irqAt, want) {
			t.Errorf("peer nap %d: interrupt taken at %v, want %v", peerNap, sleeper.irqAt, want)
		}
		checkCovered(t, sleeper, 0, 600)
	}
}

// TestTickPhaseRaiseIsAnError: a raise made from another core's tick
// could find its target already run past it, so it is an error naming
// the cycle, returned after that cycle's tick, and the line stays down.
// Cycle 10 lies inside a lone-CPU stretch (the sleeper is asleep from
// cycle 1 to 499), so the stretch's own check is the one that returns it.
func TestTickPhaseRaiseIsAnError(t *testing.T) {
	raiser, sleeper := &napCore{}, &napCore{nap: 499}
	m := napMachine(raiser, sleeper)
	raiser.onWork = func(now uint64) {
		if now == 10 {
			m.RaiseIRQ(1)
		}
	}
	next, _, err := m.RunWindow(0, 600)
	if want := "cpu 1 raised from tick phase at cycle 10"; err == nil || !strings.Contains(err.Error(), want) || next != 10 {
		t.Fatalf("RunWindow = %d, %v; want an error containing %q at cycle 10", next, err, want)
	}
	if *m.Line(1) || len(sleeper.irqAt) != 0 {
		t.Errorf("line live %v, interrupts taken at %v; want the line down", *m.Line(1), sleeper.irqAt)
	}
	// The error is returned once: the machine runs on from there.
	if _, _, err := m.RunWindow(next+1, 100); err != nil {
		t.Errorf("next window: %v", err)
	}
}

// TestLiveLineTicksEveryCycle: a core that cannot take its interrupt yet
// is ticked on every executed cycle while the line stays live, like the
// reference loop does: beside a busy core (no jump) and beside one that
// sleeps too, where the line must cancel every jump, also on cores that
// declare exact hints and so are never asked NextWork.
func TestLiveLineTicksEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		peerNap uint64
		exact   bool
	}{{0, false}, {999, false}, {999, true}} {
		peer, sleeper := &napCore{nap: tc.peerNap}, &napCore{nap: 499}
		m := napMachine(peer, sleeper)
		if tc.exact {
			m.CPUs[0], m.CPUs[1] = exactNap{peer}, exactNap{sleeper}
		}
		sleeper.m = nil // never polls, so never acks
		m.Events.Schedule(200, func(uint64) { m.RaiseIRQ(1) })
		if _, _, err := m.RunWindow(0, 300); err != nil {
			t.Fatal(err)
		}
		if got, want := len(sleeper.ticks), 1+100; got != want {
			t.Errorf("%+v: sleeper ticked %d times, want %d (cycle 0, then 200-299)", tc, got, want)
		}
		if asked := peer.asked + sleeper.asked; tc.exact && asked != 0 {
			t.Errorf("%+v: NextWork asked %d times, want 0", tc, asked)
		}
		checkCovered(t, sleeper, 0, 300)
	}
}

// TestWindowEdgeMidSleep: a RunWindow call that ends while a core sleeps
// charges the slept cycles before returning, and the next call resumes
// without charging any of them again.
func TestWindowEdgeMidSleep(t *testing.T) {
	busy, sleeper := &napCore{}, &napCore{nap: 499}
	m := napMachine(busy, sleeper)
	if _, _, err := m.RunWindow(0, 100); err != nil {
		t.Fatal(err)
	}
	if want := [][2]uint64{{1, 100}}; !reflect.DeepEqual(sleeper.skips, want) {
		t.Errorf("after the first window: SkipCycles ranges %v, want %v", sleeper.skips, want)
	}
	if _, _, err := m.RunWindow(100, 900); err != nil {
		t.Fatal(err)
	}
	checkCovered(t, sleeper, 0, 1000)
	checkCovered(t, busy, 0, 1000)
}

// TestHaltWhileOneSleeps: when every awake core halts while another
// still sleeps, the sleeper keeps the machine alive, and the run ends
// on the cycle it ends on when everything is ticked every cycle.
func TestHaltWhileOneSleeps(t *testing.T) {
	run := func(noSkip bool) (uint64, []uint64) {
		a, b := &napCore{haltAt: 10}, &napCore{nap: 99, haltAt: 100}
		m := napMachine(a, b)
		m.Cfg.NoSkip = noSkip
		next, halted, err := m.RunWindow(0, 5000)
		if err != nil || !halted {
			t.Fatalf("noSkip=%v: RunWindow = %d, halted %v, %v", noSkip, next, halted, err)
		}
		return next, a.ticks
	}
	next, aTicks := run(false)
	ref, _ := run(true)
	if next != ref || next != 101 {
		t.Errorf("run ended at cycle %d, reference %d, want 101", next, ref)
	}
	if len(aTicks) != 11 {
		t.Errorf("halted core ticked %d times, want 11 (cycles 0-10)", len(aTicks))
	}
}

// TestRunWindowToTheEnd: a window that reaches past the last cycle runs
// to the last cycle, so a core that halts is reached under it.
func TestRunWindowToTheEnd(t *testing.T) {
	var log []stubTick
	m := stubMachine(&stubCore{id: 0, haltAt: 100, log: &log})
	if next, halted, err := m.RunWindow(1, math.MaxUint64); err != nil || !halted || next != 101 {
		t.Fatalf("RunWindow(1, MaxUint64) = %d, %v, %v; want 101, true, nil", next, halted, err)
	}
	if len(log) != 100 {
		t.Errorf("core worked on %d cycles, want 100 (1-100)", len(log))
	}
}

// ---- exact hints and the lone-CPU stretch ----

// exactNap is a napCore that declares its hints exact (exactHinter).
type exactNap struct{ *napCore }

func (exactNap) ExactHints() {}

// TestExactHintsSkipNextWork: a jump takes the wake cycle of a core that
// declares exact hints without asking it, and still asks the one that
// does not; both are ticked exactly at their working cycles, and the
// jumps cover the same cycles either way.
func TestExactHintsSkipNextWork(t *testing.T) {
	run := func(exact bool) (*napCore, *napCore, uint64) {
		trusted, scanned := &napCore{nap: 99}, &napCore{nap: 149}
		m := napMachine(trusted, scanned)
		if exact {
			m.CPUs[0] = exactNap{trusted}
		}
		if _, _, err := m.RunWindow(0, 1000); err != nil {
			t.Fatal(err)
		}
		return trusted, scanned, m.SkippedCycles()
	}
	trusted, scanned, skipped := run(true)
	refTrusted, refScanned, refSkipped := run(false)
	if trusted.asked != 0 {
		t.Errorf("the core with exact hints was asked NextWork %d times, want 0", trusted.asked)
	}
	if scanned.asked == 0 || scanned.asked != refScanned.asked {
		t.Errorf("the core without was asked NextWork %d times, want the %d of a machine without exact hints", scanned.asked, refScanned.asked)
	}
	if !reflect.DeepEqual(trusted.ticks, refTrusted.ticks) || !reflect.DeepEqual(scanned.ticks, refScanned.ticks) || skipped != refSkipped {
		t.Errorf("ticks %v %v, skipped %d; without exact hints %v %v, skipped %d",
			trusted.ticks, scanned.ticks, skipped, refTrusted.ticks, refScanned.ticks, refSkipped)
	}
	if want := []uint64{0, 100, 200, 300, 400, 500, 600, 700, 800, 900}; !reflect.DeepEqual(trusted.ticks, want) {
		t.Errorf("core with exact hints ticked at %v, want %v", trusted.ticks, want)
	}
	checkCovered(t, trusted, 0, 1000)
	checkCovered(t, scanned, 0, 1000)
}

// TestLoneCoreStretch: a core that works on every cycle while the others
// sleep is ticked on every one of them up to the earliest other wake,
// the next event (one it schedules under its own tick among them) and
// the window's end, with the cores due together served in rotation
// order. Its first tick after a nap charges the nap (SkipCycles), also
// when that tick opens a stretch (cycle 101, after another core's tick
// at 100), and every core's ticks and ranges tile the window.
func TestLoneCoreStretch(t *testing.T) {
	const end = 250
	var order []stubTick
	lone, a, b := &napCore{order: &order}, &napCore{nap: 99, order: &order}, &napCore{nap: 149, order: &order}
	m := napMachine(lone, a, b)
	var seen []int
	event := func(uint64) { seen = append(seen, len(lone.ticks)) }
	lone.onWork = func(now uint64) {
		switch now {
		case 9:
			lone.next = 30 // naps over 10-29
		case 40:
			m.Events.Schedule(45, event)
		case 60:
			lone.next = 101 // naps over 61-100
		}
	}
	m.Events.Schedule(130, event)
	if next, _, err := m.RunWindow(0, end); err != nil || next != end {
		t.Fatalf("RunWindow = %d, %v; want %d", next, err, end)
	}
	works := func(id int, cyc uint64) bool {
		switch id {
		case 0:
			return cyc < 10 || cyc >= 30 && cyc <= 60 || cyc >= 101
		case 1:
			return cyc%100 == 0
		}
		return cyc%150 == 0
	}
	var want []stubTick
	for cyc := uint64(0); cyc < end; cyc++ {
		for i := 0; i < 3; i++ {
			if id := (i + int(cyc%3)) % 3; works(id, cyc) {
				want = append(want, stubTick{cyc, id})
			}
		}
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("service order diverges from the rotation over the working cores:\n got %v\nwant %v", order, want)
	}
	if want := []int{10 + 45 - 30, 10 + 31 + 130 - 101}; !reflect.DeepEqual(seen, want) {
		t.Errorf("the events at 45 and 130 found the lone core ticked %v times, want %v (through cycles 44 and 129)", seen, want)
	}
	if want := [][2]uint64{{10, 30}, {61, 101}}; !reflect.DeepEqual(lone.skips, want) {
		t.Errorf("lone core's SkipCycles ranges %v, want %v", lone.skips, want)
	}
	for _, c := range []*napCore{lone, a, b} {
		checkCovered(t, c, 0, end)
	}
}

// ---- run-ahead bound ----

// aheadCore is a core that takes the machine's run-ahead bounds the way
// Mipsy does: on every Tick it reads both, notes them, and (with jump
// set) does all its work up to the run-ahead bound at once, so that at is
// the first cycle it has not done. Without jump it sleeps nap cycles
// after each tick; with halt it halts at its first. It takes its
// interrupt when ticked with the line live.
type aheadCore struct {
	id   int
	m    *Machine
	jump bool
	nap  uint64
	halt bool
	at   uint64 // first cycle not yet worked

	bounds [][3]uint64 // (now, bound, shared bound) at every Tick
	irqs   [][2]uint64 // (now, at) whenever the line was found live
	onTick func(now uint64)
	ctx    cpu.Context
}

func (s *aheadCore) Tick(now uint64) uint64 {
	b := s.m.RunAheadBound()
	s.bounds = append(s.bounds, [3]uint64{now, b, s.m.SharedBound(s.id)})
	if *s.m.Line(s.id) {
		s.m.AckInterrupt(s.id)
		s.irqs = append(s.irqs, [2]uint64{now, s.at})
	}
	if s.onTick != nil {
		s.onTick(now)
	}
	if s.halt {
		s.ctx.Halted = true
		return cpu.NoWork
	}
	s.at = now + 1 + s.nap
	if s.jump && b > s.at {
		s.at = b
	}
	return s.at
}

func (s *aheadCore) Done() bool            { return s.ctx.Halted }
func (s *aheadCore) Stats() cpu.StallStats { return cpu.StallStats{} }
func (s *aheadCore) Context() *cpu.Context { return &s.ctx }
func (s *aheadCore) FlushFetchBuffer()     {}
func (s *aheadCore) NextWork(now uint64) uint64 {
	if s.ctx.Halted {
		return cpu.NoWork
	}
	return max(s.at, now)
}

// aheadMachine builds a Machine that keeps a run-ahead bound, with
// interrupt lines, around ahead cores.
func aheadMachine(cores ...*aheadCore) *Machine {
	m := &Machine{runAhead: true, irq: irqLines{live: make([]bool, len(cores))}}
	for i, c := range cores {
		c.id, c.m = i, m
		m.CPUs = append(m.CPUs, c)
	}
	return m
}

// TestRunAheadBoundTerms: on every executed cycle the bound is the
// earlier of the window's end and the next event (the sampler's among
// them), and never below the next cycle; NoSkip and each instrument that sees cross-CPU
// order clamp it to the next cycle. The shared bound is that bound
// lowered to the wake cycle of every other running CPU, one still due in
// the cycle's rotation counting as the next cycle and a halted one not
// at all. Both are zero outside RunWindow.
func TestRunAheadBoundTerms(t *testing.T) {
	const end, interval = 200, 40
	setup := func() (*Machine, *aheadCore) {
		c := &aheadCore{}
		m := aheadMachine(c)
		m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
		withMetrics(m, interval)
		m.Events.Schedule(100, func(uint64) {})
		m.Events.Schedule(150, func(uint64) {})
		return m, c
	}
	run := func(m *Machine, c *aheadCore) {
		t.Helper()
		if next, _, err := m.RunWindow(0, end); err != nil || next != end {
			t.Fatalf("RunWindow = %d, %v", next, err)
		}
		if len(c.bounds) != end {
			t.Fatalf("core ticked %d times, want every one of %d cycles", len(c.bounds), end)
		}
		if m.RunAheadBound() != 0 || m.SharedBound(0) != 0 {
			t.Errorf("bounds outside RunWindow = %d, %d, want 0", m.RunAheadBound(), m.SharedBound(0))
		}
	}

	m, c := setup()
	run(m, c)
	for _, nb := range c.bounds {
		now := nb[0]
		want := uint64(end)
		switch { // an event at now has fired by the time the bound is fixed
		case now < 100:
			want = 100
		case now < 150:
			want = 150
		}
		// The sample due at d is an event at the front of d+1.
		want = min(want, max((now+interval-1)/interval, 1)*interval+1)
		want = max(want, now+1)
		if nb[1] != want || nb[2] != want {
			t.Errorf("bound at cycle %d = %d, shared %d, want %d for both (no other CPU)", now, nb[1], nb[2], want)
		}
	}

	clamps := map[string]func(m *Machine){
		"NoSkip": func(m *Machine) { m.Cfg.NoSkip = true },
		"Trace":  func(m *Machine) { m.Cfg.Trace = obsv.NewRing(16) },
		"Prof":   func(m *Machine) { m.Cfg.Prof = prof.New(1, 32) },
		"Check":  func(m *Machine) { m.Cfg.Check = check.New(16) },
	}
	for name, clamp := range clamps {
		m, c := setup()
		clamp(m)
		run(m, c)
		for _, nb := range c.bounds {
			if nb[1] != nb[0]+1 || nb[2] != nb[0]+1 {
				t.Fatalf("%s: bound at cycle %d = %d, shared %d, want %d", name, nb[0], nb[1], nb[2], nb[0]+1)
			}
		}
	}

	// Cores that take no bound: the machine never computes one.
	m, c = setup()
	m.runAhead = false
	run(m, c)
	for _, nb := range c.bounds {
		if nb[1] != 0 || nb[2] != 0 {
			t.Fatalf("machine without run-ahead cores: bounds at cycle %d = %d, %d, want 0", nb[0], nb[1], nb[2])
		}
	}

	// Three CPUs: one due every cycle, one asleep 49 cycles after each
	// tick, one that halts at its first; events at 30 and 120.
	busy, napper, halter := &aheadCore{}, &aheadCore{nap: 49}, &aheadCore{halt: true}
	m = aheadMachine(busy, napper, halter)
	m.Events.Schedule(30, func(uint64) {})
	m.Events.Schedule(120, func(uint64) {})
	if next, _, err := m.RunWindow(0, end); err != nil || next != end {
		t.Fatalf("RunWindow = %d, %v", next, err)
	}
	for _, nb := range busy.bounds {
		now := nb[0]
		want := (now/50 + 1) * 50 // napper's wake cycle once ticked at or before now
		// The rotation at now starts at CPU now%3, so napper (CPU 1) is
		// served after busy (CPU 0) unless it starts at napper.
		if now%50 == 0 && now%3 != 1 {
			want = now + 1 // napper is due at now, after busy in the rotation
		}
		if want = min(want, nb[1]); nb[2] != want {
			t.Errorf("busy CPU's shared bound at cycle %d = %d, want %d (run-ahead bound %d)", now, nb[2], want, nb[1])
		}
	}
	for _, nb := range napper.bounds {
		if nb[2] != nb[0]+1 {
			t.Errorf("napping CPU's shared bound at cycle %d = %d, want %d: the busy CPU is due every cycle", nb[0], nb[2], nb[0]+1)
		}
	}
	if len(busy.bounds) != end || len(napper.bounds) != 4 || len(halter.bounds) != 1 {
		t.Errorf("ticks: busy %d, napper %d, halter %d; want %d, 4, 1", len(busy.bounds), len(napper.bounds), len(halter.bounds), end)
	}
}

// TestRaiseFindsCoresBehind: an interrupt raised by an event finds the
// target no further than the event's cycle, however far the bound let
// it run.
func TestRaiseFindsCoresBehind(t *testing.T) {
	runner, peer := &aheadCore{jump: true}, &aheadCore{}
	m := aheadMachine(runner, peer)
	m.Events.Schedule(333, func(uint64) { m.RaiseIRQ(0) })
	if _, _, err := m.RunWindow(0, 1000); err != nil {
		t.Fatal(err)
	}
	if want := [][2]uint64{{333, 333}}; !reflect.DeepEqual(runner.irqs, want) {
		t.Errorf("interrupts taken at (cycle, core position) %v, want %v", runner.irqs, want)
	}
	if len(runner.bounds) > 40 {
		t.Errorf("the running core was ticked %d times in 1000 cycles; it never ran ahead", len(runner.bounds))
	}
}

// TestLoneRunnerTicksOnce: with no event pending, nothing but the
// window's end bounds a run ahead, so a lone core that runs ahead is
// ticked once per window.
func TestLoneRunnerTicksOnce(t *testing.T) {
	c := &aheadCore{jump: true}
	m := aheadMachine(c)
	if next, _, err := m.RunWindow(0, 10000); err != nil || next != 10000 {
		t.Fatalf("RunWindow = %d, %v", next, err)
	}
	if want := [][3]uint64{{0, 10000, 10000}}; !reflect.DeepEqual(c.bounds, want) {
		t.Errorf("(cycle, bound, shared bound) at every tick = %v, want %v", c.bounds, want)
	}
}

// TestTickPhaseEventBelowBound: an event scheduled under a core's tick
// for a cycle that another core may already have run past is an error
// naming the cycle; at or past the bound (here a no-op event's) it is an
// ordinary event. The scheduling core runs alone from cycle 1 (the other
// ran ahead to 64), so cycle 10 lies inside a lone-CPU stretch.
func TestTickPhaseEventBelowBound(t *testing.T) {
	for _, tc := range []struct {
		at      uint64
		wantErr string
	}{{20, "for cycle 20, below the run-ahead bound 64"}, {64, ""}, {500, ""}} {
		runner, sched := &aheadCore{jump: true}, &aheadCore{}
		m := aheadMachine(runner, sched)
		m.Events.Schedule(64, func(uint64) {})
		var fired []uint64
		sched.onTick = func(now uint64) {
			if now == 10 {
				m.Events.Schedule(tc.at, func(at uint64) { fired = append(fired, at) })
			}
		}
		next, _, err := m.RunWindow(0, 1000)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || next != 10 {
				t.Errorf("event for cycle %d: RunWindow = %d, %v; want an error containing %q at cycle 10", tc.at, next, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(fired, []uint64{tc.at}) {
			t.Errorf("event for cycle %d: err %v, fired at %v", tc.at, err, fired)
		}
	}
}

// quietCore is a stub core whose Tick never allocates (unlike stubCore,
// which appends to a shared log), so it can sit under a 0-allocs/op
// benchmark: asleep until blockedUntil, then runnable every cycle, or,
// with nap set, asleep nap cycles after every tick.
type quietCore struct {
	blockedUntil uint64
	nap          uint64
	ctx          cpu.Context
}

func (s *quietCore) Tick(now uint64) uint64 {
	if s.nap != 0 {
		s.blockedUntil = now + s.nap
	}
	return s.NextWork(now)
}
func (s *quietCore) Done() bool            { return false }
func (s *quietCore) Stats() cpu.StallStats { return cpu.StallStats{} }
func (s *quietCore) Context() *cpu.Context { return &s.ctx }
func (s *quietCore) FlushFetchBuffer()     {}
func (s *quietCore) NextWork(now uint64) uint64 {
	return max(now, s.blockedUntil)
}

// exactQuiet is a quietCore that declares its hints exact.
type exactQuiet struct{ *quietCore }

func (exactQuiet) ExactHints() {}

// BenchmarkRunWindow times the cycle loop alone, over stub cores whose
// Tick does nothing, on a four-CPU machine. all-awake has every core
// due on every cycle; one-of-four has one core due while three sleep
// (the lone-CPU stretch); staggered-jump has every core sleep 17, 19, 23
// and 29 cycles after each tick and declare exact hints, so most
// executed cycles tick one core and jump. ns/op is host time per
// simulated cycle, which is per executed cycle in the first two. All
// three must stay at 0 allocs/op (CI greps). sampler is all-awake with
// an interval sampler probing a shared-memory system every 1000 cycles;
// each sample allocates, so it is not gated.
func BenchmarkRunWindow(b *testing.B) {
	for _, bc := range []struct {
		name    string
		asleep  int
		naps    []uint64
		sampler bool
	}{{"all-awake", 0, nil, false}, {"one-of-four", 3, nil, false}, {"staggered-jump", 0, []uint64{17, 19, 23, 29}, false}, {"sampler", 0, nil, true}} {
		b.Run(bc.name, func(b *testing.B) {
			m := &Machine{}
			for i := 0; i < 4; i++ {
				c := &quietCore{}
				if i < bc.asleep {
					c.blockedUntil = 1 << 62
				}
				if bc.naps == nil {
					m.CPUs = append(m.CPUs, c)
					continue
				}
				c.nap = bc.naps[i]
				m.CPUs = append(m.CPUs, exactQuiet{c})
			}
			if bc.sampler {
				m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
				withMetrics(m, 1000)
			}
			if _, _, err := m.RunWindow(0, 1); err != nil { // size the schedule
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if next, _, err := m.RunWindow(1, uint64(b.N)); err != nil || next != 1+uint64(b.N) {
				b.Fatalf("RunWindow = %d, %v", next, err)
			}
		})
	}
}
