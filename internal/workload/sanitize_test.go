package workload

import (
	"reflect"
	"testing"

	"cmpsim/internal/check"
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
)

// TestSanitizedRunsClean is the acceptance gate for the runtime
// sanitizer over the whole quick matrix: every workload on every
// architecture under both CPU models runs with the full invariant suite
// enabled — MESI legality, directory/L1 agreement, inclusion, cycle
// monotonicity and MSHR drain — and must finish without a violation (a
// violation panics the run) and with the uninstrumented run's Cycles,
// PerCPU and MemReport. The sanitized run also carries a trace ring and
// a profiler, so it checks that neither changes the simulation. It
// requires the checker to have actually evaluated a meaningful number
// of invariants, and the ring and profiler to have recorded the run, so
// a mis-wired Config field cannot pass silently.
func TestSanitizedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 84 quick simulations; skipped in -short mode")
	}
	for _, name := range Names() {
		if name == "latprobe" {
			continue // no quick variant
		}
		for _, arch := range core.Arches() {
			t.Run(name+"/"+string(arch), func(t *testing.T) {
				for _, model := range []core.CPUModel{core.ModelMipsy, core.ModelMXS} {
					t.Run(string(model), func(t *testing.T) {
						sanitizedCell(t, name, arch, model)
					})
				}
			})
		}
	}
}

// sanitizedCell runs one quick cell plain and instrumented (sanitizer,
// trace ring, profiler and interval sampler) and compares them.
func sanitizedCell(t *testing.T, name string, arch core.Arch, model core.CPUModel) {
	run := func(cfg memsys.Config) *core.RunResult {
		w, err := NewQuick(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, arch, model, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	chk := check.New(64)
	ring := obsv.NewRing(1024)
	cfg := memsys.DefaultConfig()
	cfg.Check = chk
	cfg.Trace = obsv.Tee(ring, chk) // the checker's copy is the violation trail
	cfg.Prof = prof.New(cfg.NumCPUs, cfg.LineBytes)
	cfg.Metrics = obsv.NewMetrics(5000)
	got := run(cfg)
	if chk.Checks() < 1000 {
		t.Fatalf("sanitizer ran only %d checks; the Config.Check wiring is broken", chk.Checks())
	}
	if ring.Emitted() == 0 {
		t.Error("the trace ring saw no events; the Config.Trace wiring is broken")
	}
	if got.Profile == nil || len(got.Profile.PCs) == 0 {
		t.Error("the profile attributes no PC; the Config.Prof wiring is broken")
	}
	if len(cfg.Metrics.Samples()) == 0 {
		t.Error("the sampler recorded no interval; the Config.Metrics wiring is broken")
	}
	want := run(memsys.DefaultConfig())
	if got.Cycles != want.Cycles {
		t.Errorf("instrumented Cycles %d, plain %d", got.Cycles, want.Cycles)
	}
	if !reflect.DeepEqual(got.PerCPU, want.PerCPU) {
		t.Errorf("instrumented PerCPU differs\n got %+v\nwant %+v", got.PerCPU, want.PerCPU)
	}
	if !reflect.DeepEqual(got.MemReport, want.MemReport) {
		t.Errorf("instrumented MemReport differs\n got %+v\nwant %+v", got.MemReport, want.MemReport)
	}
}

// TestQuickVariantsExist pins the central quick table to the workload
// registry: every registered application workload must have a quick
// variant (latprobe is a microbenchmark with its own size parameters).
func TestQuickVariantsExist(t *testing.T) {
	for _, name := range Names() {
		if name == "latprobe" {
			continue
		}
		w, err := NewQuick(name)
		if err != nil {
			t.Errorf("no quick variant of %q: %v", name, err)
			continue
		}
		if w.Name() != name {
			t.Errorf("NewQuick(%q).Name() = %q", name, w.Name())
		}
	}
	if _, err := NewQuick("no-such-workload"); err == nil {
		t.Error("NewQuick of an unknown name should fail")
	}
}
