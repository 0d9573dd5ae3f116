package mxs_test

import (
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// oneCycleMem is a memory system for a single CPU in which every
// reference hits in one cycle, so a run against it times the pipeline
// model alone.
type oneCycleMem struct{ reserved bool }

func (*oneCycleMem) Name() string { return "one-cycle" }
func (*oneCycleMem) Access(now uint64, cpu int, addr uint32, write bool) (memsys.Result, bool) {
	return memsys.Result{Done: now + 1, Level: memsys.LvlL1}, true
}
func (*oneCycleMem) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	return memsys.Result{Done: now + 1, Level: memsys.LvlL1}
}
func (m *oneCycleMem) LLReserve(cpu int, addr uint32) { m.reserved = true }
func (m *oneCycleMem) SCCheck(cpu int, addr uint32) bool {
	ok := m.reserved
	m.reserved = false
	return ok
}
func (m *oneCycleMem) ClearReservation(cpu int) { m.reserved = false }
func (*oneCycleMem) Report() memsys.Report      { return memsys.Report{Name: "one-cycle"} }

// tickBench is quick-scale eqntott on one MXS core over oneCycleMem:
// integer code whose data-dependent branches mispredict often, so the
// squash path runs at steady state along with dispatch, wakeup, issue
// and graduation.
type tickBench struct {
	cpu core.Core
	cyc uint64
}

func newTickBench(tb testing.TB) *tickBench {
	tb.Helper()
	w, err := workload.NewQuick("eqntott")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := memsys.DefaultConfig()
	cfg.NumCPUs = 1
	m, err := core.NewMachine(core.SharedMem, core.ModelMXS, cfg, w.MemBytes())
	if err != nil {
		tb.Fatal(err)
	}
	m.Sys = &oneCycleMem{} // before Configure: the cores capture it as they are built
	if err := w.Configure(m); err != nil {
		tb.Fatal(err)
	}
	return &tickBench{cpu: m.CPUs[0]}
}

// ticks advances the core n cycles and reports whether it is still running.
func (t *tickBench) ticks(n int) bool {
	for i := 0; i < n && !t.cpu.Done(); i++ {
		t.cpu.Tick(t.cyc)
		t.cyc++
	}
	return !t.cpu.Done()
}

// BenchmarkMXSTick reports host ns per MXS pipeline cycle. CI requires
// its "0 allocs/op" (make bench-trace).
func BenchmarkMXSTick(b *testing.B) {
	b.ReportAllocs()
	t := newTickBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !t.ticks(1) {
			b.StopTimer()
			t = newTickBench(b)
			b.StartTimer()
		}
	}
}

// TestTickDoesNotAllocate pins the tick path at zero heap allocations
// once the pipeline is in steady state.
func TestTickDoesNotAllocate(t *testing.T) {
	tb := newTickBench(t)
	if !tb.ticks(10_000) {
		t.Fatal("the program halted during warm-up")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if !tb.ticks(1_000) {
			t.Fatal("the program halted while being measured")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per 1000 ticks, want 0", allocs)
	}
	if tb.cpu.Stats().Mispredicts == 0 {
		t.Error("no branch mispredicted: the squash path was not measured")
	}
}
