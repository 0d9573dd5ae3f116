package mxs_test

import (
	"slices"
	"testing"

	"cmpsim/internal/benchfig"
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

// tickBench drives the MXS cores of one machine by hand, in the serial
// loop's rotation. Its three cases:
//
//   - one-cycle: quick-scale eqntott on one core over oneCycleMem, integer
//     code whose data-dependent branches mispredict often, so the squash
//     path runs at steady state along with dispatch, wakeup, issue and
//     graduation, and nothing else is timed;
//   - mp3d-shared-mem: quick-scale MP3D on the default four cores over the
//     real shared-memory system, every core ticked on every cycle, so
//     misses keep entries pending for tens of cycles, the MSHRs and write
//     buffers refuse, and most ticks find no completion due;
//   - stalled-window: the same program on the memory-bound design point
//     (benchfig.MXSMemBoundConfig), each core ticked only when its own wake
//     hint is due, as the cycle loop ticks it: what is timed is the ticks
//     NextWork could not rule out, and ticks/inst says how many those are.
type tickBench struct {
	cpus   []core.Core
	cyc    uint64
	k      int      // cores already visited at cyc
	wakeAt []uint64 // per core, the hint of its last tick; nil ticks every cycle
}

type tickBenchCase struct {
	name, app string
	oneCycle  bool
	stalled   bool
}

var tickBenchCases = []tickBenchCase{
	{name: "one-cycle", app: "eqntott", oneCycle: true},
	{name: "mp3d-shared-mem", app: "mp3d"},
	{name: "stalled-window", app: "mp3d", stalled: true},
}

func newTickBench(tb testing.TB, bc tickBenchCase) *tickBench {
	tb.Helper()
	w, err := workload.NewQuick(bc.app)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := memsys.DefaultConfig()
	if bc.stalled {
		cfg = benchfig.MXSMemBoundConfig()
	}
	if bc.oneCycle {
		cfg.NumCPUs = 1
	}
	m, err := core.NewMachine(core.SharedMem, core.ModelMXS, cfg, w.MemBytes())
	if err != nil {
		tb.Fatal(err)
	}
	if bc.oneCycle {
		m.Sys = &oneCycleMem{} // before Configure: the cores capture it as they are built
	}
	if err := w.Configure(m); err != nil {
		tb.Fatal(err)
	}
	t := &tickBench{cpus: m.CPUs}
	if bc.stalled {
		t.wakeAt = make([]uint64, len(m.CPUs))
	}
	return t
}

// ticks makes n Tick calls and reports whether every core is still
// running.
func (t *tickBench) ticks(n int) bool {
	cpus := len(t.cpus)
	for n > 0 {
		k := int((t.cyc + uint64(t.k)) % uint64(cpus))
		if t.wakeAt == nil || t.wakeAt[k] <= t.cyc {
			c := t.cpus[k]
			if c.Done() {
				return false
			}
			w := c.Tick(t.cyc)
			if t.wakeAt != nil {
				t.wakeAt[k] = w
			}
			n--
		}
		if t.k++; t.k == cpus {
			t.k = 0
			t.cyc++
			if t.wakeAt != nil {
				// Jump to the earliest wake cycle, as the loop does; with
				// every core halted that is cpu.NoWork, and the core found
				// due there is Done.
				t.cyc = max(t.cyc, slices.Min(t.wakeAt))
			}
		}
	}
	return true
}

// retired returns the instructions the cores have graduated.
func (t *tickBench) retired() (n uint64) {
	for _, c := range t.cpus {
		n += c.Stats().Instructions
	}
	return n
}

// BenchmarkMXSTick reports host ns per MXS Tick call of one core, and
// the Tick calls made per graduated instruction. CI requires "0
// allocs/op" of every case (make bench-trace).
func BenchmarkMXSTick(b *testing.B) {
	for _, bc := range tickBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			t := newTickBench(b, bc)
			var retired uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !t.ticks(1) {
					b.StopTimer()
					retired += t.retired()
					t = newTickBench(b, bc)
					b.StartTimer()
				}
			}
			if retired += t.retired(); retired > 0 {
				b.ReportMetric(float64(b.N)/float64(retired), "ticks/inst")
			}
		})
	}
}

// TestTickDoesNotAllocate pins the tick path at zero heap allocations
// once the pipeline is in steady state.
func TestTickDoesNotAllocate(t *testing.T) {
	for _, bc := range tickBenchCases {
		t.Run(bc.name, func(t *testing.T) {
			tb := newTickBench(t, bc)
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
