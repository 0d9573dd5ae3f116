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

// tickBench drives the MXS cores of one machine by hand, every core on
// every cycle in the serial loop's rotation. Its two cases:
//
//   - one-cycle: quick-scale eqntott on one core over oneCycleMem, integer
//     code whose data-dependent branches mispredict often, so the squash
//     path runs at steady state along with dispatch, wakeup, issue and
//     graduation, and nothing else is timed;
//   - mp3d-shared-mem: quick-scale MP3D on the default four cores over the
//     real shared-memory system, so misses keep entries pending for tens
//     of cycles, the MSHRs and write buffers refuse, and most ticks find
//     no completion due.
type tickBench struct {
	cpus []core.Core
	cyc  uint64
	k    int // cores already ticked at cyc
}

var tickBenchCases = []struct {
	name, app string
	oneCycle  bool
}{
	{"one-cycle", "eqntott", true},
	{"mp3d-shared-mem", "mp3d", false},
}

func newTickBench(tb testing.TB, app string, oneCycle bool) *tickBench {
	tb.Helper()
	w, err := workload.NewQuick(app)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := memsys.DefaultConfig()
	if oneCycle {
		cfg.NumCPUs = 1
	}
	m, err := core.NewMachine(core.SharedMem, core.ModelMXS, cfg, w.MemBytes())
	if err != nil {
		tb.Fatal(err)
	}
	if oneCycle {
		m.Sys = &oneCycleMem{} // before Configure: the cores capture it as they are built
	}
	if err := w.Configure(m); err != nil {
		tb.Fatal(err)
	}
	return &tickBench{cpus: m.CPUs}
}

// ticks makes n Tick calls and reports whether every core is still
// running.
func (t *tickBench) ticks(n int) bool {
	cpus := len(t.cpus)
	for ; n > 0; n-- {
		c := t.cpus[(t.cyc+uint64(t.k))%uint64(cpus)]
		if c.Done() {
			return false
		}
		c.Tick(t.cyc)
		if t.k++; t.k == cpus {
			t.k = 0
			t.cyc++
		}
	}
	return true
}

// BenchmarkMXSTick reports host ns per MXS pipeline cycle of one core.
// CI requires "0 allocs/op" of both cases (make bench-trace).
func BenchmarkMXSTick(b *testing.B) {
	for _, bc := range tickBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			t := newTickBench(b, bc.app, bc.oneCycle)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !t.ticks(1) {
					b.StopTimer()
					t = newTickBench(b, bc.app, bc.oneCycle)
					b.StartTimer()
				}
			}
		})
	}
}

// TestTickDoesNotAllocate pins the tick path at zero heap allocations
// once the pipeline is in steady state.
func TestTickDoesNotAllocate(t *testing.T) {
	for _, bc := range tickBenchCases {
		t.Run(bc.name, func(t *testing.T) {
			tb := newTickBench(t, bc.app, bc.oneCycle)
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
			var mispredicts uint64
			for _, c := range tb.cpus {
				mispredicts += c.Stats().Mispredicts
			}
			if mispredicts == 0 {
				t.Error("no branch mispredicted: the squash path was not measured")
			}
		})
	}
}
