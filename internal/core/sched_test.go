package core

// Scheduler-level tests for the quiescence-skipping cycle loop, using
// stub cores so blocking horizons and tick order are fully controlled.
// The end-to-end output-identity proof lives in the root package's
// skip_test.go; these pin the loop mechanics themselves: rotation
// arbitration at large cycle counts, skip distances, event chains that
// cross a would-be skip window, and sampler boundaries.

import (
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

// TestMetricsBoundariesNotSkipped: sampler due-cycles bound every jump,
// so the interval time-series has exactly the same sample points with
// skipping as without.
func TestMetricsBoundariesNotSkipped(t *testing.T) {
	var log []stubTick
	m := stubMachine(&stubCore{id: 0, blockedUntil: 60, log: &log})
	m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
	m.Cfg.Metrics = obsv.NewMetrics(10)
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
	if s.m != nil && s.m.PendingInterrupt(s.id) {
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
	return s.NextWork(now + 1)
}

func (s *napCore) SkipCycles(from, to uint64) { s.skips = append(s.skips, [2]uint64{from, to}) }
func (s *napCore) Done() bool                 { return s.halted }
func (s *napCore) Stats() cpu.StallStats      { return cpu.StallStats{} }
func (s *napCore) Context() *cpu.Context      { return &s.ctx }
func (s *napCore) FlushFetchBuffer()          {}
func (s *napCore) NextWork(now uint64) uint64 {
	if s.halted {
		return cpu.NoWork
	}
	return max(s.next, now)
}

// napMachine builds a Machine with interrupt lines around nap cores.
func napMachine(cores ...*napCore) *Machine {
	m := &Machine{irq: irqLines{live: make([]bool, len(cores)), pending: make([]bool, len(cores))}}
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

// TestTickPhaseIRQWakesSleeperAtGrid: a raise made from another core's
// tick is buffered, and reaches the sleeping target at the next grid
// boundary — not before, and not at its own later wake cycle.
func TestTickPhaseIRQWakesSleeperAtGrid(t *testing.T) {
	raiser, sleeper := &napCore{}, &napCore{nap: 499}
	m := napMachine(raiser, sleeper)
	m.Cfg.SimWindow = 64
	raiser.onWork = func(now uint64) {
		if now == 10 {
			m.RaiseIRQ(1)
		}
	}
	if _, _, err := m.RunWindow(0, 600); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 64, 500}; !reflect.DeepEqual(sleeper.ticks, want) {
		t.Errorf("sleeper ticked at %v, want %v", sleeper.ticks, want)
	}
	if want := []uint64{64}; !reflect.DeepEqual(sleeper.irqAt, want) {
		t.Errorf("interrupt taken at %v, want %v", sleeper.irqAt, want)
	}
}

// TestLiveLineTicksEveryCycle: a core that cannot take its interrupt yet
// is ticked on every executed cycle while the line stays live, like the
// reference loop does.
func TestLiveLineTicksEveryCycle(t *testing.T) {
	busy, sleeper := &napCore{}, &napCore{nap: 499}
	m := napMachine(busy, sleeper)
	sleeper.m = nil // never polls, so never acks
	m.Events.Schedule(200, func(uint64) { m.RaiseIRQ(1) })
	if _, _, err := m.RunWindow(0, 300); err != nil {
		t.Fatal(err)
	}
	if got, want := len(sleeper.ticks), 1+100; got != want {
		t.Errorf("sleeper ticked %d times, want %d (cycle 0, then 200-299)", got, want)
	}
	checkCovered(t, sleeper, 0, 300)
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

// ---- run-ahead bound ----

// aheadCore is a core that takes the machine's run-ahead bound the way
// Mipsy does: on every Tick it reads the bound, notes it, and (with jump
// set) does all its work up to it at once, so that at is the first cycle
// it has not done. It takes its interrupt when ticked with the line live.
type aheadCore struct {
	id   int
	m    *Machine
	jump bool
	at   uint64 // first cycle not yet worked

	bounds [][2]uint64 // (now, bound) at every Tick
	irqs   [][2]uint64 // (now, at) whenever the line was found live
	onTick func(now uint64)
	ctx    cpu.Context
}

func (s *aheadCore) Tick(now uint64) uint64 {
	b := s.m.RunAheadBound()
	s.bounds = append(s.bounds, [2]uint64{now, b})
	if s.m.PendingInterrupt(s.id) {
		s.m.AckInterrupt(s.id)
		s.irqs = append(s.irqs, [2]uint64{now, s.at})
	}
	if s.onTick != nil {
		s.onTick(now)
	}
	s.at = now + 1
	if s.jump && b > s.at {
		s.at = b
	}
	return s.at
}

func (s *aheadCore) Done() bool                 { return false }
func (s *aheadCore) Stats() cpu.StallStats      { return cpu.StallStats{} }
func (s *aheadCore) Context() *cpu.Context      { return &s.ctx }
func (s *aheadCore) FlushFetchBuffer()          {}
func (s *aheadCore) NextWork(now uint64) uint64 { return max(s.at, now) }

// aheadMachine builds a Machine that keeps a run-ahead bound, with
// interrupt lines, around ahead cores.
func aheadMachine(cores ...*aheadCore) *Machine {
	m := &Machine{runAhead: true, irq: irqLines{live: make([]bool, len(cores)), pending: make([]bool, len(cores))}}
	for i, c := range cores {
		c.id, c.m = i, m
		m.CPUs = append(m.CPUs, c)
	}
	return m
}

// TestRunAheadBoundTerms: on every executed cycle the bound is the
// earliest of the window's end, the next event, the next grid boundary
// (buffered raise or not) and the sampler's next due cycle, and never
// below the next cycle; NoSkip and each instrument that sees cross-CPU
// order clamp it to the next cycle.
func TestRunAheadBoundTerms(t *testing.T) {
	const end, grid, interval = 200, 64, 40
	setup := func() (*Machine, *aheadCore) {
		c := &aheadCore{}
		m := aheadMachine(c)
		m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
		m.Cfg.SimWindow = grid
		m.Cfg.Metrics = obsv.NewMetrics(interval)
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
		if m.RunAheadBound() != 0 {
			t.Errorf("bound outside RunWindow = %d, want 0", m.RunAheadBound())
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
		want = min(want, (now/grid+1)*grid)
		// The sample at a due cycle is taken after the cycle's ticks.
		want = min(want, max((now+interval-1)/interval, 1)*interval)
		want = max(want, now+1)
		if nb[1] != want {
			t.Errorf("bound at cycle %d = %d, want %d", now, nb[1], want)
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
			if nb[1] != nb[0]+1 {
				t.Fatalf("%s: bound at cycle %d = %d, want %d", name, nb[0], nb[1], nb[0]+1)
			}
		}
	}

	// Cores that take no bound: the machine never computes one.
	m, c = setup()
	m.runAhead = false
	run(m, c)
	for _, nb := range c.bounds {
		if nb[1] != 0 {
			t.Fatalf("machine without run-ahead cores: bound at cycle %d = %d, want 0", nb[0], nb[1])
		}
	}
}

// TestRaiseFindsCoresBehind: whatever raises an interrupt line finds the
// target no further than the cycle the line goes live at, however far
// the bound let it run: an event-phase raise at the event's cycle, a
// tick-phase raise by another core at the next grid boundary.
func TestRaiseFindsCoresBehind(t *testing.T) {
	runner, raiser := &aheadCore{jump: true}, &aheadCore{}
	m := aheadMachine(runner, raiser)
	m.Cfg.SimWindow = 64
	m.Events.Schedule(333, func(uint64) { m.RaiseIRQ(0) })
	raiser.onTick = func(now uint64) {
		if now == 10 {
			m.RaiseIRQ(0)
		}
	}
	if _, _, err := m.RunWindow(0, 1000); err != nil {
		t.Fatal(err)
	}
	if want := [][2]uint64{{64, 64}, {333, 333}}; !reflect.DeepEqual(runner.irqs, want) {
		t.Errorf("interrupts taken at (cycle, core position) %v, want %v", runner.irqs, want)
	}
	if len(runner.bounds) > 40 {
		t.Errorf("the running core was ticked %d times in 1000 cycles; it never ran ahead", len(runner.bounds))
	}
}

// TestTickPhaseEventBelowBound: an event scheduled under a core's tick
// for a cycle that another core may already have run past is an error
// naming the cycle; at or past the bound it is an ordinary event.
func TestTickPhaseEventBelowBound(t *testing.T) {
	for _, tc := range []struct {
		at      uint64
		wantErr string
	}{{20, "for cycle 20, below the run-ahead bound 64"}, {64, ""}, {500, ""}} {
		runner, sched := &aheadCore{jump: true}, &aheadCore{}
		m := aheadMachine(runner, sched)
		m.Cfg.SimWindow = 64
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
// benchmark: asleep until blockedUntil, then runnable every cycle.
type quietCore struct {
	blockedUntil uint64
	ctx          cpu.Context
}

func (s *quietCore) Tick(now uint64) uint64 { return s.NextWork(now) }
func (s *quietCore) Done() bool             { return false }
func (s *quietCore) Stats() cpu.StallStats  { return cpu.StallStats{} }
func (s *quietCore) Context() *cpu.Context  { return &s.ctx }
func (s *quietCore) FlushFetchBuffer()      {}
func (s *quietCore) NextWork(now uint64) uint64 {
	return max(now, s.blockedUntil)
}

// BenchmarkRunWindow times the cycle loop alone, over stub cores whose
// Tick does nothing: ns/op is host time per executed cycle on a
// four-CPU machine, with every core due on every cycle and with one
// core due while three sleep. Both must stay at 0 allocs/op (CI greps).
func BenchmarkRunWindow(b *testing.B) {
	for _, bc := range []struct {
		name   string
		asleep int
	}{{"all-awake", 0}, {"one-of-four", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			m := &Machine{}
			for i := 0; i < 4; i++ {
				c := &quietCore{}
				if i < bc.asleep {
					c.blockedUntil = 1 << 62
				}
				m.CPUs = append(m.CPUs, c)
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
