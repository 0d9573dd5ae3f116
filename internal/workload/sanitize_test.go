package workload

import (
	"reflect"
	"strings"
	"testing"

	"cmpsim/internal/check"
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
)

// TestSanitizedRunsClean is the acceptance gate for the runtime
// sanitizer over the whole quick matrix: every workload on every
// architecture under both CPU models runs with the full invariant suite
// enabled — MESI legality, directory/L1 agreement, inclusion, cycle
// monotonicity and MSHR drain — and must finish without a violation (a
// violation panics the run) and with the uninstrumented run's Cycles,
// PerCPU and MemReport. It also requires the checker to have actually
// evaluated a meaningful number of invariants, so a mis-wired
// Config.Check cannot pass silently.
//
// Four MXS cells on shared-mem are known to break CheckMESI's
// write-back rule (ROADMAP item 16). They must keep failing with exactly
// that rule: a protocol fix flips them here on purpose, and any other
// violation fails the test.
func TestSanitizedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 84 quick simulations; skipped in -short mode")
	}
	knownWriteBack := map[string]bool{"eqntott": true, "mp3d": true, "ocean": true, "ear": true}
	for _, name := range Names() {
		if name == "latprobe" {
			continue // no quick variant
		}
		for _, arch := range core.Arches() {
			t.Run(name+"/"+string(arch), func(t *testing.T) {
				for _, model := range []core.CPUModel{core.ModelMipsy, core.ModelMXS} {
					known := model == core.ModelMXS && arch == core.SharedMem && knownWriteBack[name]
					t.Run(string(model), func(t *testing.T) {
						sanitizedCell(t, name, arch, model, known)
					})
				}
			})
		}
	}
}

// sanitizedCell runs one quick cell plain and sanitized and compares
// them; known says the sanitized run must panic with CheckMESI's
// write-back rule instead.
func sanitizedCell(t *testing.T, name string, arch core.Arch, model core.CPUModel, known bool) {
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
	cfg := memsys.DefaultConfig()
	cfg.Check = chk
	cfg.Trace = chk // populate the violation trail
	var got *core.RunResult
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			v, ok := r.(*check.Violation)
			if !ok {
				panic(r)
			}
			if !known || v.Rule != "mesi" || !strings.Contains(v.Msg, "Modified in L1 over a Shared L2 copy") {
				t.Fatal(v)
			}
			t.Logf("known write-back violation (ROADMAP item 16): %s", v.Msg)
		}()
		got = run(cfg)
	}()
	if got == nil {
		return
	}
	if known {
		t.Fatal("ran clean; the known write-back violation is gone, so drop this cell from the known set")
	}
	if chk.Checks() < 1000 {
		t.Fatalf("sanitizer ran only %d checks; the Config.Check wiring is broken", chk.Checks())
	}
	want := run(memsys.DefaultConfig())
	if got.Cycles != want.Cycles {
		t.Errorf("sanitized Cycles %d, plain %d", got.Cycles, want.Cycles)
	}
	if !reflect.DeepEqual(got.PerCPU, want.PerCPU) {
		t.Errorf("sanitized PerCPU differs\n got %+v\nwant %+v", got.PerCPU, want.PerCPU)
	}
	if !reflect.DeepEqual(got.MemReport, want.MemReport) {
		t.Errorf("sanitized MemReport differs\n got %+v\nwant %+v", got.MemReport, want.MemReport)
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
