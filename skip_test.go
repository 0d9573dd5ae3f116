// Skip-vs-no-skip regression suite: the quiescence-skipping scheduler
// must be invisible in every observable output. Each case runs the same
// workload twice — once with skipping (the default) and once with
// Config.NoSkip — with the full observability stack attached, and
// requires identical cycle counts, per-CPU stall statistics, memory
// reports, interval samples, latency histograms, trace event streams,
// rendered Chrome traces and profile JSON. The figures built from the
// runs must also match, so the printed experiments/cmpsim output is
// byte-identical by construction.
package cmpsim_test

import (
	"bytes"
	"reflect"
	"testing"

	"cmpsim"
	"cmpsim/internal/benchfig"
	"cmpsim/internal/workload"
)

// instrumentedRun is everything observable about one run.
type instrumentedRun struct {
	res     *cmpsim.Result
	samples []cmpsim.Sample
	hist    string
	events  []cmpsim.TraceEvent
	chrome  []byte
	prof    []byte
}

func runInstrumented(t *testing.T, mk func() cmpsim.Workload, arch cmpsim.Arch, model cmpsim.CPUModel, noSkip bool) instrumentedRun {
	t.Helper()
	cfg := cmpsim.DefaultConfig()
	cfg.NoSkip = noSkip
	cfg.Metrics = cmpsim.NewMetrics(5000)
	ring := cmpsim.NewTraceRing(1 << 16)
	cfg.Trace = ring
	cfg.Prof = cmpsim.NewProfiler(cfg.NumCPUs, cfg.LineBytes)
	res, err := cmpsim.RunWorkload(mk(), arch, model, &cfg)
	if err != nil {
		t.Fatalf("%s/%s noSkip=%v: %v", arch, model, noSkip, err)
	}
	out := instrumentedRun{
		res:     res,
		samples: cfg.Metrics.Samples(),
		hist:    cfg.Metrics.Hist().String(),
		events:  ring.Events(),
	}
	var cb bytes.Buffer
	if err := cmpsim.WriteChromeTrace(&cb, out.events); err != nil {
		t.Fatal(err)
	}
	out.chrome = cb.Bytes()
	var pb bytes.Buffer
	if err := res.Profile.WriteJSON(&pb); err != nil {
		t.Fatal(err)
	}
	out.prof = pb.Bytes()
	return out
}

// diffRuns fails the test on the first observable difference between a
// skipping and a non-skipping run of the same configuration.
func diffRuns(t *testing.T, skip, ref instrumentedRun) {
	t.Helper()
	if skip.res.Cycles != ref.res.Cycles {
		t.Errorf("cycles: skip=%d no-skip=%d", skip.res.Cycles, ref.res.Cycles)
	}
	if !reflect.DeepEqual(skip.res.PerCPU, ref.res.PerCPU) {
		t.Errorf("per-CPU stats diverge:\nskip:    %+v\nno-skip: %+v", skip.res.PerCPU, ref.res.PerCPU)
	}
	if !reflect.DeepEqual(skip.res.MemReport, ref.res.MemReport) {
		t.Errorf("memory report diverges:\nskip:    %+v\nno-skip: %+v", skip.res.MemReport, ref.res.MemReport)
	}
	if !reflect.DeepEqual(skip.samples, ref.samples) {
		t.Errorf("interval samples diverge (%d vs %d samples)", len(skip.samples), len(ref.samples))
	}
	if skip.hist != ref.hist {
		t.Errorf("latency histograms diverge:\nskip:\n%s\nno-skip:\n%s", skip.hist, ref.hist)
	}
	if !reflect.DeepEqual(skip.events, ref.events) {
		t.Errorf("trace event streams diverge (%d vs %d events)", len(skip.events), len(ref.events))
	}
	if !bytes.Equal(skip.chrome, ref.chrome) {
		t.Error("rendered Chrome traces diverge")
	}
	if !bytes.Equal(skip.prof, ref.prof) {
		t.Error("profile JSON diverges")
	}
}

// TestSkipMatchesNoSkip covers the full architecture × CPU-model matrix
// with a miss-heavy workload (the case the scheduler accelerates most),
// comparing every observable output and the assembled figures.
func TestSkipMatchesNoSkip(t *testing.T) {
	for _, model := range []cmpsim.CPUModel{cmpsim.ModelMipsy, cmpsim.ModelMXS} {
		model := model
		mk := func() cmpsim.Workload {
			// Small enough to keep 12 instrumented runs in the seconds
			// range, large enough to blow the L1s and hit memory.
			return workload.NewMP3D(workload.MP3DParams{Particles: 512, Steps: 1})
		}
		t.Run(string(model), func(t *testing.T) {
			skipRuns := map[cmpsim.Arch]*cmpsim.Result{}
			refRuns := map[cmpsim.Arch]*cmpsim.Result{}
			for _, arch := range cmpsim.Architectures() {
				skip := runInstrumented(t, mk, arch, model, false)
				ref := runInstrumented(t, mk, arch, model, true)
				t.Run(string(arch), func(t *testing.T) { diffRuns(t, skip, ref) })
				// The instruments shorten some of the loop's sleeps (a
				// tracer is owed the refusal event of every retried cycle,
				// an ordered instrument clamps Mipsy's run-ahead), so the
				// loop as it runs bare is held to the reference as well.
				t.Run(string(arch)+"/bare", func(t *testing.T) {
					bare, err := cmpsim.RunWorkload(mk(), arch, model, nil)
					if err != nil {
						t.Fatal(err)
					}
					diffRuns(t, instrumentedRun{res: bare}, instrumentedRun{res: ref.res})
				})
				skipRuns[arch] = skip.res
				refRuns[arch] = ref.res
			}
			skipFig := cmpsim.BuildFigure("skip", "mp3d", model, skipRuns)
			refFig := cmpsim.BuildFigure("skip", "mp3d", model, refRuns)
			if skipFig.String() != refFig.String() {
				t.Errorf("figure text diverges:\nskip:\n%s\nno-skip:\n%s", skipFig, refFig)
			}
			if skipFig.Chart() != refFig.Chart() {
				t.Error("figure charts diverge")
			}
		})
	}
}

// TestSkipMatchesNoSkipMemBound is the bare case where it bites: on the
// memory-bound design point the private MSHR files of shared-L2 and
// shared-mem are full most of the time, the bare MXS cores sleep through
// the refusals and the reference retries every one of them every cycle.
// A refusal that counted anything would show in the memory report.
func TestSkipMatchesNoSkipMemBound(t *testing.T) {
	for _, arch := range []cmpsim.Arch{cmpsim.SharedL2, cmpsim.SharedMem} {
		arch := arch
		t.Run(string(arch)+"/bare", func(t *testing.T) {
			var runs [2]instrumentedRun
			for i, noSkip := range []bool{false, true} {
				cfg := benchfig.MXSMemBoundConfig()
				cfg.NoSkip = noSkip
				w := workload.NewMP3D(workload.MP3DParams{Particles: 256, Steps: 1})
				res, err := cmpsim.RunWorkload(w, arch, cmpsim.ModelMXS, &cfg)
				if err != nil {
					t.Fatal(err)
				}
				runs[i].res = res
			}
			diffRuns(t, runs[0], runs[1])
		})
	}
}

// TestSkipMatchesNoSkipKernel exercises the paths the matrix above
// cannot: the guest kernel's preemption timers (events scheduling
// events across skip windows), external interrupts landing on blocked
// CPUs, and context switches re-activating parked cores.
func TestSkipMatchesNoSkipKernel(t *testing.T) {
	for _, model := range []cmpsim.CPUModel{cmpsim.ModelMipsy, cmpsim.ModelMXS} {
		model := model
		mk := func() cmpsim.Workload {
			return workload.NewPmake(workload.PmakeParams{Procs: 5, Funcs: 10, Passes: 2})
		}
		t.Run(string(model), func(t *testing.T) {
			skip := runInstrumented(t, mk, cmpsim.SharedL1, model, false)
			ref := runInstrumented(t, mk, cmpsim.SharedL1, model, true)
			diffRuns(t, skip, ref)
		})
	}
}
