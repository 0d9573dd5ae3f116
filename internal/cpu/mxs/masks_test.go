package mxs_test

import (
	"testing"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu/mxs"
	"cmpsim/internal/workload"
)

// checkedCore asserts after every Tick that the CPU's incrementally
// maintained slot masks equal what a scan of the window entries gives,
// and that NextWork returns what the scan-based proof returns.
type checkedCore struct {
	*mxs.CPU
	t *testing.T
}

func (c *checkedCore) Tick(now uint64) uint64 {
	wake := c.CPU.Tick(now)
	if c.Done() {
		return wake
	}
	if err := c.CPU.CheckMasks(now); err != nil {
		c.t.Fatalf("after Tick(%d): %v", now, err)
	}
	if got, want := c.CPU.NextWork(now), c.CPU.NextWorkScan(now); got != want {
		c.t.Fatalf("after Tick(%d): NextWork = %d, the window scan proves %d", now, got, want)
	}
	return wake
}

// checkMasksEveryTick wraps m's cores (all MXS) in checkedCores. The
// serial scheduler ticks on the test's goroutine, so Fatalf is legal.
func checkMasksEveryTick(t *testing.T, m *core.Machine) {
	t.Helper()
	for i, c := range m.CPUs {
		m.CPUs[i] = &checkedCore{CPU: c.(*mxs.CPU), t: t}
	}
}

// checkedWorkload installs the mask check on the machine its workload
// configures.
type checkedWorkload struct {
	workload.Workload
	t *testing.T
}

func (w checkedWorkload) Configure(m *core.Machine) error {
	err := w.Workload.Configure(m)
	checkMasksEveryTick(w.t, m)
	return err
}

// TestMasksUnderKernel runs pmake at quick scale with the mask check
// on: system calls flush the pipeline at the head, and the preemption
// timer (off in the figure runs, 2000 cycles here) drains it to take
// interrupts.
func TestMasksUnderKernel(t *testing.T) {
	w := workload.NewPmake(workload.PmakeParams{Procs: 6, Funcs: 48, Passes: 4, Quantum: 2000})
	if _, err := workload.Run(checkedWorkload{w, t}, core.SharedL2, core.ModelMXS, nil); err != nil {
		t.Fatal(err)
	}
	if k := w.Kernel(); k.Preemptions == 0 {
		t.Error("no process was preempted: the interrupt drain was not exercised")
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
