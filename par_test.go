// Parallel-tick identity suite: the sharded scheduler (Config.SimJobs >
// 1) must be invisible in every observable output. Each case runs the
// same workload serially and with 2 and 4 shard workers — with the
// interval sampler attached, the one observability instrument the
// parallel path supports — and requires identical cycle counts, per-CPU
// stall statistics, memory reports, interval samples and latency
// histograms. The figures built from the runs must also match, so the
// printed experiments/cmpsim output is byte-identical by construction.
//
// Per-event instruments (tracer, profiler, sanitizer) force the serial
// loop; a separate case pins that a traced run with SimJobs set still
// produces the serial trace.
package cmpsim_test

import (
	"reflect"
	"testing"

	"cmpsim"
	"cmpsim/internal/workload"
)

// parRun is everything observable about one sampled run.
type parRun struct {
	res     *cmpsim.Result
	samples []cmpsim.Sample
	hist    string
}

func runSharded(t *testing.T, mk func() cmpsim.Workload, arch cmpsim.Arch, model cmpsim.CPUModel, simJobs int) parRun {
	t.Helper()
	cfg := cmpsim.DefaultConfig()
	cfg.SimJobs = simJobs
	cfg.Metrics = cmpsim.NewMetrics(5000)
	res, err := cmpsim.RunWorkload(mk(), arch, model, &cfg)
	if err != nil {
		t.Fatalf("%s/%s sim-jobs=%d: %v", arch, model, simJobs, err)
	}
	return parRun{res: res, samples: cfg.Metrics.Samples(), hist: cfg.Metrics.Hist().String()}
}

// diffParRuns fails the test on the first observable difference between
// a sharded and the serial run of the same configuration.
func diffParRuns(t *testing.T, jobs int, par, ref parRun) {
	t.Helper()
	if par.res.Cycles != ref.res.Cycles {
		t.Errorf("sim-jobs=%d cycles: par=%d serial=%d", jobs, par.res.Cycles, ref.res.Cycles)
	}
	if !reflect.DeepEqual(par.res.PerCPU, ref.res.PerCPU) {
		t.Errorf("sim-jobs=%d per-CPU stats diverge:\npar:    %+v\nserial: %+v", jobs, par.res.PerCPU, ref.res.PerCPU)
	}
	if !reflect.DeepEqual(par.res.MemReport, ref.res.MemReport) {
		t.Errorf("sim-jobs=%d memory report diverges:\npar:    %+v\nserial: %+v", jobs, par.res.MemReport, ref.res.MemReport)
	}
	if !reflect.DeepEqual(par.samples, ref.samples) {
		t.Errorf("sim-jobs=%d interval samples diverge (%d vs %d samples)", jobs, len(par.samples), len(ref.samples))
	}
	if par.hist != ref.hist {
		t.Errorf("sim-jobs=%d latency histograms diverge:\npar:\n%s\nserial:\n%s", jobs, par.hist, ref.hist)
	}
}

// TestParallelMatchesSerial covers the full architecture × CPU-model
// matrix with a miss-heavy workload at 1, 2 and 4 shard workers.
func TestParallelMatchesSerial(t *testing.T) {
	for _, model := range []cmpsim.CPUModel{cmpsim.ModelMipsy, cmpsim.ModelMXS} {
		model := model
		mk := func() cmpsim.Workload {
			return workload.NewMP3D(workload.MP3DParams{Particles: 512, Steps: 1})
		}
		t.Run(string(model), func(t *testing.T) {
			refRuns := map[cmpsim.Arch]*cmpsim.Result{}
			parRuns := map[cmpsim.Arch]*cmpsim.Result{}
			for _, arch := range cmpsim.Architectures() {
				ref := runSharded(t, mk, arch, model, 1)
				refRuns[arch] = ref.res
				for _, jobs := range []int{2, 4} {
					par := runSharded(t, mk, arch, model, jobs)
					t.Run(string(arch), func(t *testing.T) { diffParRuns(t, jobs, par, ref) })
					parRuns[arch] = par.res
				}
			}
			refFig := cmpsim.BuildFigure("par", "mp3d", model, refRuns)
			parFig := cmpsim.BuildFigure("par", "mp3d", model, parRuns)
			if parFig.String() != refFig.String() {
				t.Errorf("figure text diverges:\npar:\n%s\nserial:\n%s", parFig, refFig)
			}
			if parFig.Chart() != refFig.Chart() {
				t.Error("figure charts diverge")
			}
		})
	}
}

// TestParallelMatchesSerialKernel exercises the paths the matrix above
// cannot: the guest kernel's preemption timers raising interrupts from
// event callbacks, trap-handler mutation of kernel run queues under the
// tick gate, and context switches re-activating parked cores — all
// across window barriers.
func TestParallelMatchesSerialKernel(t *testing.T) {
	for _, model := range []cmpsim.CPUModel{cmpsim.ModelMipsy, cmpsim.ModelMXS} {
		model := model
		mk := func() cmpsim.Workload {
			return workload.NewPmake(workload.PmakeParams{Procs: 5, Funcs: 10, Passes: 2})
		}
		t.Run(string(model), func(t *testing.T) {
			ref := runSharded(t, mk, cmpsim.SharedL1, model, 1)
			for _, jobs := range []int{2, 4} {
				diffParRuns(t, jobs, runSharded(t, mk, cmpsim.SharedL1, model, jobs), ref)
			}
		})
	}
}

// TestParallelNoSkipMatches pins the orthogonality of the two scheduler
// features: sharding with the quiescence skip disabled must still match
// the plain serial run.
func TestParallelNoSkipMatches(t *testing.T) {
	mk := func() cmpsim.Workload {
		return workload.NewMP3D(workload.MP3DParams{Particles: 256, Steps: 1})
	}
	ref := runSharded(t, mk, cmpsim.SharedMem, cmpsim.ModelMXS, 1)
	cfg := cmpsim.DefaultConfig()
	cfg.SimJobs = 4
	cfg.NoSkip = true
	cfg.Metrics = cmpsim.NewMetrics(5000)
	res, err := cmpsim.RunWorkload(mk(), cmpsim.SharedMem, cmpsim.ModelMXS, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	diffParRuns(t, 4, parRun{res: res, samples: cfg.Metrics.Samples(), hist: cfg.Metrics.Hist().String()}, ref)
}

// TestParallelTracedFallsBackSerial pins the forced-serial contract:
// per-event instruments keep their exact serial emission order even
// when the configuration asks for sharding.
func TestParallelTracedFallsBackSerial(t *testing.T) {
	mk := func() cmpsim.Workload {
		return workload.NewMP3D(workload.MP3DParams{Particles: 256, Steps: 1})
	}
	run := func(simJobs int) ([]cmpsim.TraceEvent, *cmpsim.Result) {
		cfg := cmpsim.DefaultConfig()
		cfg.SimJobs = simJobs
		ring := cmpsim.NewTraceRing(1 << 16)
		cfg.Trace = ring
		res, err := cmpsim.RunWorkload(mk(), cmpsim.SharedL2, cmpsim.ModelMXS, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ring.Events(), res
	}
	refEvents, refRes := run(1)
	parEvents, parRes := run(4)
	if !reflect.DeepEqual(parEvents, refEvents) {
		t.Errorf("trace event streams diverge under SimJobs (%d vs %d events)", len(parEvents), len(refEvents))
	}
	if parRes.Cycles != refRes.Cycles {
		t.Errorf("cycles diverge under SimJobs with tracer: %d vs %d", parRes.Cycles, refRes.Cycles)
	}
}
