package core

// Scheduler-level tests for the parallel tick path, using stub cores so
// the barrier and gate mechanics are fully controlled: shared-state
// access order under the rotation gate, event chains across window
// barriers, sampler boundaries, tick-phase IRQ buffering, and halt
// cycles in mid-window. The end-to-end output-identity proof lives in
// the root package's par_test.go.

import (
	"reflect"
	"testing"

	"cmpsim/internal/cpu"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
)

// gatedStub is a stub Core that touches "shared state" every runnable
// tick: it takes its tick gate (as a real CPU model does through the
// wrapped memory system) and appends to a log shared by all cores. The
// log order therefore observes exactly the rotation order the gate
// grants. A gate-ordering bug scrambles the log; a missing
// happens-before edge trips the race detector on the append.
type gatedStub struct {
	id           int
	blockedUntil uint64
	haltAt       uint64 // halt when ticked at or after this cycle (0 = never)
	raiseAt      uint64 // RaiseIRQ(raiseTo) when ticked at this cycle (0 = never)
	raiseTo      int
	halted       bool
	gate         cpu.TickGate
	m            *Machine
	log          *[]stubTick
	irqSeen      *[]uint64 // cycles at which this core saw its live line up
	ctx          cpu.Context
}

func (s *gatedStub) Tick(now uint64) uint64 {
	if s.halted || now < s.blockedUntil {
		return s.NextWork(now)
	}
	if s.gate != nil {
		s.gate.Sync()
	}
	*s.log = append(*s.log, stubTick{now, s.id})
	if s.irqSeen != nil && s.m.PendingInterrupt(s.id) {
		*s.irqSeen = append(*s.irqSeen, now)
		s.m.AckInterrupt(s.id)
	}
	if s.raiseAt != 0 && now == s.raiseAt {
		s.m.RaiseIRQ(s.raiseTo)
	}
	if s.haltAt != 0 && now >= s.haltAt {
		s.halted = true
		s.ctx.Halted = true
	}
	return s.NextWork(now)
}

func (s *gatedStub) Done() bool            { return s.halted }
func (s *gatedStub) Stats() cpu.StallStats { return cpu.StallStats{} }
func (s *gatedStub) Context() *cpu.Context { return &s.ctx }
func (s *gatedStub) FlushFetchBuffer()     {}
func (s *gatedStub) NextWork(now uint64) uint64 {
	if s.halted {
		return cpu.NoWork
	}
	if s.blockedUntil > now {
		return s.blockedUntil
	}
	return now
}

// stubParMachine assembles a Machine over gated stubs with the given
// shard-worker count (1 = serial) and SimWindow grid.
func stubParMachine(simJobs int, grid uint64, cores ...*gatedStub) *Machine {
	m := &Machine{}
	m.Cfg.NumCPUs = len(cores)
	m.Cfg.SimJobs = simJobs
	m.Cfg.SimWindow = grid
	m.irq = irqLines{live: make([]bool, len(cores)), pending: make([]bool, len(cores))}
	if simJobs > 1 && len(cores) > 1 {
		m.par = newParSched(m, simJobs)
	}
	for i, c := range cores {
		c.m = m
		if m.par != nil {
			c.gate = m.par.gate(i)
		}
		m.CPUs = append(m.CPUs, c)
	}
	return m
}

// parCase runs the same stub scenario serially and at several worker
// counts and requires identical tick logs, stop cycles, halt flags and
// IRQ observations.
type parCase struct {
	mk    func() []*gatedStub // fresh cores sharing fresh logs
	grid  uint64
	start uint64
	n     uint64
}

func (tc parCase) run(t *testing.T, simJobs int) (log []stubTick, irqSeen []uint64, next uint64, halted bool) {
	t.Helper()
	cores := tc.mk()
	m := stubParMachine(simJobs, tc.grid, cores...)
	shared := &log
	seen := &irqSeen
	for _, c := range cores {
		c.log = shared
		if c.irqSeen != nil {
			c.irqSeen = seen
		}
	}
	next, halted, err := m.RunWindow(tc.start, tc.n)
	if err != nil {
		t.Fatalf("sim-jobs=%d: %v", simJobs, err)
	}
	return log, irqSeen, next, halted
}

func (tc parCase) check(t *testing.T) {
	t.Helper()
	refLog, refSeen, refNext, refHalted := tc.run(t, 1)
	for _, jobs := range []int{2, 4} {
		log, seen, next, halted := tc.run(t, jobs)
		if !reflect.DeepEqual(log, refLog) {
			t.Errorf("sim-jobs=%d tick order diverges:\npar:    %v\nserial: %v", jobs, trunc(log), trunc(refLog))
		}
		if !reflect.DeepEqual(seen, refSeen) {
			t.Errorf("sim-jobs=%d IRQ delivery diverges: par=%v serial=%v", jobs, seen, refSeen)
		}
		if next != refNext || halted != refHalted {
			t.Errorf("sim-jobs=%d stop state = (%d, %v), serial (%d, %v)", jobs, next, halted, refNext, refHalted)
		}
	}
}

func trunc(l []stubTick) []stubTick {
	if len(l) > 24 {
		return l[:24]
	}
	return l
}

// TestParallelSharedAccessOrder pins the tick gate's core property:
// with every core touching shared state every cycle, the global access
// log must equal the serial rotation order exactly.
func TestParallelSharedAccessOrder(t *testing.T) {
	tc := parCase{
		mk: func() []*gatedStub {
			return []*gatedStub{{id: 0}, {id: 1}, {id: 2}, {id: 3}}
		},
		grid: 32, start: 5, n: 200,
	}
	tc.check(t)
	// And against first principles, not just the serial run.
	log, _, _, _ := tc.run(t, 4)
	i := 0
	for cyc := uint64(5); cyc < 205; cyc++ {
		off := int(cyc % 4)
		for k := 0; k < 4; k++ {
			want := stubTick{cyc, (k + off) % 4}
			if log[i] != want {
				t.Fatalf("access %d = %+v, want %+v", i, log[i], want)
			}
			i++
		}
	}
}

// TestParallelStaggeredBlocking mixes runnable and long-blocked cores so
// shards advance at very different rates across barriers; the per-CPU
// local skip must leave the executed-tick record identical.
func TestParallelStaggeredBlocking(t *testing.T) {
	parCase{
		mk: func() []*gatedStub {
			return []*gatedStub{
				{id: 0},
				{id: 1, blockedUntil: 150},
				{id: 2, blockedUntil: 70},
				{id: 3, blockedUntil: 260},
			}
		},
		grid: 64, start: 0, n: 400,
	}.check(t)
}

// TestParallelEventChainAcrossBarriers: an event chain (5 → 12 → 40)
// must fire at exactly those cycles with workers running — events bound
// the window edge, so none can land inside a window.
func TestParallelEventChainAcrossBarriers(t *testing.T) {
	run := func(simJobs int) ([]uint64, []stubTick) {
		var log []stubTick
		cores := []*gatedStub{{id: 0, blockedUntil: 10000}, {id: 1}}
		m := stubParMachine(simJobs, 4096, cores...)
		for _, c := range cores {
			c.log = &log
		}
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
		return fired, log
	}
	refFired, refLog := run(1)
	if want := []uint64{5, 12, 40}; !reflect.DeepEqual(refFired, want) {
		t.Fatalf("serial events fired at %v, want %v", refFired, want)
	}
	fired, log := run(2)
	if !reflect.DeepEqual(fired, refFired) {
		t.Errorf("parallel events fired at %v, serial %v", fired, refFired)
	}
	if !reflect.DeepEqual(log, refLog) {
		t.Errorf("tick order diverges around events:\npar:    %v\nserial: %v", trunc(log), trunc(refLog))
	}
}

// TestParallelSamplerBoundaries: sampler due-cycles bound the window
// edge, so the interval time-series has exactly the serial sample
// points.
func TestParallelSamplerBoundaries(t *testing.T) {
	run := func(simJobs int) []uint64 {
		var log []stubTick
		cores := []*gatedStub{{id: 0, blockedUntil: 60}, {id: 1, blockedUntil: 60}}
		m := stubParMachine(simJobs, 4096, cores...)
		for _, c := range cores {
			c.log = &log
		}
		m.Sys = memsys.NewSharedMem(memsys.DefaultConfig())
		m.Cfg.Metrics = obsv.NewMetrics(10)
		if _, _, err := m.RunWindow(0, 45); err != nil {
			t.Fatal(err)
		}
		var cycles []uint64
		for _, s := range m.Cfg.Metrics.Samples() {
			cycles = append(cycles, s.End)
		}
		return cycles
	}
	want := []uint64{10, 20, 30, 40}
	if got := run(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("serial sample cycles = %v, want %v", got, want)
	}
	if got := run(2); !reflect.DeepEqual(got, want) {
		t.Errorf("parallel sample cycles = %v, want %v", got, want)
	}
}

// TestParallelTickPhaseIRQBuffered: an IRQ raised from tick phase is
// buffered and merged onto the live line at the next SimWindow grid
// boundary — the same delivery cycle serial and parallel.
func TestParallelTickPhaseIRQBuffered(t *testing.T) {
	tc := parCase{
		mk: func() []*gatedStub {
			seen := []uint64{}
			return []*gatedStub{
				{id: 0, raiseAt: 3, raiseTo: 1},
				{id: 1, irqSeen: &seen},
			}
		},
		grid: 16, start: 0, n: 64,
	}
	// The observation cycle must be the first grid boundary after the
	// raise: cycle 16.
	_, seen, _, _ := tc.run(t, 1)
	if want := []uint64{16}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("serial IRQ observed at %v, want %v", seen, want)
	}
	tc.check(t)
}

// TestParallelCoordinatorPhaseIRQImmediate: an IRQ raised from an event
// callback is live the same cycle, serial and parallel.
func TestParallelCoordinatorPhaseIRQImmediate(t *testing.T) {
	run := func(simJobs int) []uint64 {
		var log []stubTick
		seen := []uint64{}
		cores := []*gatedStub{{id: 0}, {id: 1, irqSeen: &seen}}
		m := stubParMachine(simJobs, 16, cores...)
		for _, c := range cores {
			c.log = &log
		}
		m.Events.Schedule(21, func(uint64) { m.RaiseIRQ(1) })
		if _, _, err := m.RunWindow(0, 64); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	want := []uint64{21}
	if got := run(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("serial IRQ observed at %v, want %v", got, want)
	}
	if got := run(4); !reflect.DeepEqual(got, want) {
		t.Errorf("parallel IRQ observed at %v, want %v", got, want)
	}
}

// TestParallelMidWindowHalt: cores halting at different cycles mid-
// window must stop the run at the serial break cycle, not the window
// edge.
func TestParallelMidWindowHalt(t *testing.T) {
	tc := parCase{
		mk: func() []*gatedStub {
			return []*gatedStub{
				{id: 0, haltAt: 37},
				{id: 1, haltAt: 90},
				{id: 2, haltAt: 11},
			}
		},
		grid: 4096, start: 0, n: 4000,
	}
	_, _, next, halted := tc.run(t, 1)
	if !halted || next != 91 {
		t.Fatalf("serial stop = (%d, %v), want (91, true)", next, halted)
	}
	tc.check(t)
}

// TestParallelGateIdempotent: repeated Sync calls within one tick must
// be free after the first, on a two-core lockstep machine where every
// tick syncs twice.
func TestParallelGateIdempotent(t *testing.T) {
	var log []stubTick
	cores := []*gatedStub{{id: 0}, {id: 1}}
	m := stubParMachine(2, 4096, cores...)
	for _, c := range cores {
		c.log = &log
	}
	// Re-sync inside the same tick through a second gate handle: must
	// not deadlock or reorder (synced flag short-circuits).
	g0 := m.par.gate(0)
	cores[0].gate = gateTwice{g0}
	if _, _, err := m.RunWindow(0, 100); err != nil {
		t.Fatal(err)
	}
	if len(log) != 200 {
		t.Fatalf("executed %d ticks, want 200", len(log))
	}
}

// gateTwice syncs twice per call to exercise idempotence.
type gateTwice struct{ g cpu.TickGate }

func (g gateTwice) Sync() { g.g.Sync(); g.g.Sync() }
