package mxs_test

import (
	"fmt"
	"reflect"
	"testing"

	"cmpsim/internal/asm"
	"cmpsim/internal/benchfig"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/cpu/mxs"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// checkedCore asserts after every Tick that the CPU's incrementally
// maintained slot masks equal what a scan of the window entries gives,
// and holds NextWork to its word. It answers now+1 to the scheduler
// whatever the CPU said, so every cycle is ticked, and remembers the
// CPU's own hint: every tick before that cycle is one the real loop
// would have slept through, and must have changed nothing.
type checkedCore struct {
	*mxs.CPU
	t   *testing.T
	id  int
	mem *countingMem

	sleepTo uint64 // the remembered hint; 0 when there is none
	slept   uint64 // ticks checked to be no-ops
}

func (c *checkedCore) Tick(now uint64) uint64 {
	if c.IRQLive() {
		// The line wakes a sleeping CPU in the real loop (wakeLive): the
		// hint was given without it.
		c.sleepTo = 0
	}
	asleep := now < c.sleepTo
	before, stats := c.Snapshot(), c.Stats()
	c.mem.effects = 0
	c.CPU.Tick(now)
	if c.Done() {
		if asleep {
			c.t.Fatalf("cycle %d, cpu %d: halted in a tick NextWork had ruled out until %d", now, c.id, c.sleepTo)
		}
		return cpu.NoWork
	}
	if err := c.CheckMasks(now); err != nil {
		c.t.Fatalf("after Tick(%d): %v", now, err)
	}
	hint := c.NextWork(now)
	if floor := c.NextWorkScan(now); hint < floor {
		c.t.Fatalf("after Tick(%d): NextWork = %d, below the %d the window scan proves", now, hint, floor)
	}
	if !asleep {
		c.sleepTo = hint
		return now + 1
	}
	if field := firstDiff(before, c.Snapshot()); field != "" {
		c.t.Fatalf("cycle %d, cpu %d: %s changed in a tick NextWork had ruled out until %d\nbefore: %+v\n after: %+v",
			now, c.id, field, c.sleepTo, before, c.Snapshot())
	}
	if field := blameDiff(stats, c.Stats()); field != "" {
		c.t.Fatalf("cycle %d, cpu %d: %s: a tick NextWork had ruled out until %d must charge one stall cycle and nothing else\nbefore: %+v\n after: %+v",
			now, c.id, field, c.sleepTo, stats, c.Stats())
	}
	if c.mem.effects != 0 {
		c.t.Fatalf("cycle %d, cpu %d: %d memory-system calls other than refused ones in a tick NextWork had ruled out until %d",
			now, c.id, c.mem.effects, c.sleepTo)
	}
	c.slept++
	return now + 1
}

// firstDiff names the first field in which two snapshots differ.
func firstDiff(a, b mxs.Snapshot) string {
	if a == b {
		return ""
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Interface() != vb.Field(i).Interface() {
			return va.Type().Field(i).Name
		}
	}
	return "?"
}

// blameDiff returns "" if b is a plus one zero-graduation cycle charged
// to exactly one stall counter, and otherwise what differs.
func blameDiff(a, b cpu.StallStats) string {
	charged := 0
	for l := range a.IStall {
		charged += int(b.IStall[l]-a.IStall[l]) + int(b.DStall[l]-a.DStall[l])
		a.IStall[l], a.DStall[l] = b.IStall[l], b.DStall[l]
	}
	charged += int(b.PipeStall - a.PipeStall)
	a.PipeStall = b.PipeStall
	switch {
	case a.Instructions != b.Instructions:
		return "Instructions"
	case a != b:
		return "a speculation counter"
	case charged != 1:
		return fmt.Sprintf("%d stall cycles charged", charged)
	}
	return ""
}

// countingMem counts the calls of one CPU that the memory system did
// not refuse: the ones with an effect.
type countingMem struct {
	memsys.System
	effects int

	wbufFull, mshrFull int // refusals, by the level they blame
}

func (m *countingMem) Access(now uint64, cpu int, addr uint32, write bool) (memsys.Result, bool) {
	r, ok := m.System.Access(now, cpu, addr, write)
	switch {
	case ok:
		m.effects++
	case r.Level == memsys.LvlL2:
		m.wbufFull++
	default:
		m.mshrFull++
	}
	return r, ok
}

func (m *countingMem) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	m.effects++
	return m.System.IFetch(now, cpu, addr)
}

func (m *countingMem) LLReserve(cpu int, addr uint32) {
	m.effects++
	m.System.LLReserve(cpu, addr)
}

func (m *countingMem) SCCheck(cpu int, addr uint32) bool {
	m.effects++
	return m.System.SCCheck(cpu, addr)
}

func (m *countingMem) ClearReservation(cpu int) {
	m.effects++
	m.System.ClearReservation(cpu)
}

// checkMasksEveryTick wraps m's cores (all MXS) in checkedCores. The
// serial scheduler ticks on the test's goroutine, so Fatalf is legal.
func checkMasksEveryTick(t *testing.T, m *core.Machine) []*checkedCore {
	t.Helper()
	checked := make([]*checkedCore, len(m.CPUs))
	for i, c := range m.CPUs {
		cc := &checkedCore{CPU: c.(*mxs.CPU), t: t, id: i, mem: &countingMem{}}
		cc.WrapMem(func(sys memsys.System) memsys.System {
			cc.mem.System = sys
			return cc.mem
		})
		checked[i] = cc
		m.CPUs[i] = cc
	}
	return checked
}

// checkedWorkload installs the mask check on the machine its workload
// configures.
type checkedWorkload struct {
	workload.Workload
	t     *testing.T
	cores []*checkedCore
}

func (w *checkedWorkload) Configure(m *core.Machine) error {
	err := w.Workload.Configure(m)
	w.cores = checkMasksEveryTick(w.t, m)
	return err
}

// TestMasksUnderKernel runs pmake at quick scale with the mask check
// on: system calls flush the pipeline at the head, and the preemption
// timer (off in the figure runs, 2000 cycles here) drains it to take
// interrupts.
func TestMasksUnderKernel(t *testing.T) {
	w := workload.NewPmake(workload.PmakeParams{Procs: 6, Funcs: 48, Passes: 4, Quantum: 2000})
	if _, err := workload.Run(&checkedWorkload{Workload: w, t: t}, core.SharedL2, core.ModelMXS, nil); err != nil {
		t.Fatal(err)
	}
	if k := w.Kernel(); k.Preemptions == 0 {
		t.Error("no process was preempted: the interrupt drain was not exercised")
	}
}

// TestMasksUnderMemBound runs pmake and MP3D on the memory-bound design
// point, where the cores spend most cycles behind full MSHRs and write
// buffers: every architecture must reach both refusals, and sleep
// through them.
func TestMasksUnderMemBound(t *testing.T) {
	cfg := benchfig.MXSMemBoundConfig()
	for _, arch := range core.Arches() {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			t.Parallel()
			pmake, err := workload.NewQuick("pmake")
			if err != nil {
				t.Fatal(err)
			}
			var wbufFull, mshrFull int
			var slept uint64
			for _, w := range []workload.Workload{
				pmake,
				workload.NewMP3D(workload.MP3DParams{Particles: 256, Steps: 1}),
			} {
				cw := &checkedWorkload{Workload: w, t: t}
				if _, err := workload.Run(cw, arch, core.ModelMXS, &cfg); err != nil {
					t.Fatal(err)
				}
				for _, c := range cw.cores {
					wbufFull += c.mem.wbufFull
					mshrFull += c.mem.mshrFull
					slept += c.slept
				}
			}
			if wbufFull == 0 || mshrFull == 0 || slept == 0 {
				t.Errorf("%d write-buffer-full and %d MSHR-full refusals, %d no-op ticks checked: want all three reached",
					wbufFull, mshrFull, slept)
			}
		})
	}
}

// TestMasksUnderReplay has four CPUs increment one word under a
// test-and-set spin lock: the spinning loads issue speculatively, the
// owner's release store changes the word before they graduate, and the
// value check replays them, squashing everything younger.
func TestMasksUnderReplay(t *testing.T) {
	build := func() *asm.Builder {
		b := asm.NewBuilder()
		b.Label("start")
		b.LA(asm.R1, "lock")
		b.LA(asm.R4, "counter")
		b.LI(asm.R2, 50)
		b.Label("spin")
		b.LW(asm.R3, 0, asm.R1)
		b.BNEZ(asm.R3, "spin")
		b.LL(asm.R3, 0, asm.R1)
		b.BNEZ(asm.R3, "spin")
		b.LI(asm.R3, 1)
		b.SC(asm.R3, 0, asm.R1)
		b.BEQZ(asm.R3, "spin")
		b.LW(asm.R5, 0, asm.R4)
		b.ADDI(asm.R5, asm.R5, 1)
		b.SW(asm.R5, 0, asm.R4)
		b.SW(asm.R0, 0, asm.R1)
		b.ADDI(asm.R2, asm.R2, -1)
		b.BNEZ(asm.R2, "spin")
		b.HALT()
		b.AlignData(4)
		b.DataLabel("lock")
		b.Word32(0)
		b.DataLabel("counter")
		b.Word32(0)
		return b
	}
	_, m := runBoth(t, build, 4, core.SharedMem)
	if got := m.Img.Read32(0x40004); got != 200 {
		t.Errorf("counter = %d, want 200", got)
	}
	var replays uint64
	for _, c := range m.CPUs {
		replays += c.Stats().Replays
	}
	if replays == 0 {
		t.Error("no load was replayed: the test no longer exercises the replay squash")
	}
}
