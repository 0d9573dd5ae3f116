package workload

import (
	"fmt"
	"reflect"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
)

// preemptOutcome is what a preempted pmake run must reproduce exactly.
type preemptOutcome struct {
	Cycles                uint64
	PerCPU                []cpu.StallStats
	Mem                   memsys.Report
	Switches, Preemptions uint64
	Samples               []obsv.Sample
}

// runPreempted runs pmake with a timer quantum and only the interval
// sampler attached, so nothing clamps the scheduler: noSkip is the
// tick-everything, one-instruction-per-tick reference; chunk > 0 drives
// the run through RunWindow calls of that many cycles.
func runPreempted(t *testing.T, arch core.Arch, model core.CPUModel, quantum int, noSkip bool, chunk uint64) preemptOutcome {
	t.Helper()
	w := NewPmake(PmakeParams{Procs: 7, Funcs: 12, Passes: 2, Quantum: quantum})
	cfg := memsys.DefaultConfig()
	cfg.NoSkip = noSkip
	cfg.Metrics = obsv.NewMetrics(1000)
	m, err := core.NewMachine(arch, model, cfg, w.MemBytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Configure(m); err != nil {
		t.Fatal(err)
	}
	if chunk == 0 {
		chunk = maxCycles
	}
	var cyc uint64
	for halted := false; !halted; {
		if cyc >= maxCycles {
			t.Fatalf("%s/%s quantum %d: no halt in %d cycles", arch, model, quantum, cyc)
		}
		if cyc, halted, err = m.RunWindow(cyc, chunk); err != nil {
			t.Fatalf("%s/%s quantum %d: %v", arch, model, quantum, err)
		}
	}
	res := m.Result(cyc)
	if err := w.Validate(m); err != nil {
		t.Fatalf("%s/%s quantum %d: %v", arch, model, quantum, err)
	}
	k := w.Kernel()
	return preemptOutcome{res.Cycles, res.PerCPU, res.MemReport, k.Switches, k.Preemptions, cfg.Metrics.Samples()}
}

// TestPreemptionIdentity: timer interrupts that land on running,
// blocked and sleeping CPUs, at quanta short enough to fire hundreds of
// times, must leave no trace of how the scheduler advanced time. The
// default loop (per-CPU wake cycles, interrupt lines pulling sleepers
// down, Mipsy running ahead to the next timer event) and the same loop
// cut into 777-cycle RunWindow calls must reproduce the NoSkip run: end
// cycle, every CPU's stall counters, the memory report, the kernel's
// switch and preemption counts, and every 1000-cycle interval sample.
// The instrumented identity suites cannot see this: a tracer or
// profiler clamps the run-ahead.
func TestPreemptionIdentity(t *testing.T) {
	for _, model := range []core.CPUModel{core.ModelMipsy, core.ModelMXS} {
		for _, arch := range core.Arches() {
			for _, quantum := range []int{137, 500, 1500, 5000} {
				t.Run(fmt.Sprintf("%s/%s/q%d", model, arch, quantum), func(t *testing.T) {
					ref := runPreempted(t, arch, model, quantum, true, 0)
					if ref.Preemptions == 0 {
						t.Fatal("the reference run never preempted; the test exercises nothing")
					}
					for _, tc := range []struct {
						name  string
						chunk uint64
					}{{"default", 0}, {"777-cycle windows", 777}} {
						got := runPreempted(t, arch, model, quantum, false, tc.chunk)
						if got.Cycles != ref.Cycles || got.Switches != ref.Switches || got.Preemptions != ref.Preemptions {
							t.Errorf("%s: cycles %d switches %d preemptions %d; NoSkip %d %d %d", tc.name,
								got.Cycles, got.Switches, got.Preemptions, ref.Cycles, ref.Switches, ref.Preemptions)
						}
						if !reflect.DeepEqual(got.PerCPU, ref.PerCPU) {
							t.Errorf("%s: per-CPU stall stats diverge\ngot:    %+v\nNoSkip: %+v", tc.name, got.PerCPU, ref.PerCPU)
						}
						if !reflect.DeepEqual(got.Mem, ref.Mem) {
							t.Errorf("%s: memory report diverges\ngot:    %+v\nNoSkip: %+v", tc.name, got.Mem, ref.Mem)
						}
						if !reflect.DeepEqual(got.Samples, ref.Samples) {
							t.Errorf("%s: interval samples diverge (%d samples, NoSkip %d)", tc.name, len(got.Samples), len(ref.Samples))
						}
					}
				})
			}
		}
	}
}
