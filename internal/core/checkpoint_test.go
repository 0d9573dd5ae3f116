package core_test

import (
	"bytes"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// configure builds a machine with the given workload configured on it.
func configure(t *testing.T, w workload.Workload, arch core.Arch) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(arch, core.ModelMipsy, memsys.DefaultConfig(), w.MemBytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Configure(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckpointMidRunTransfersAcrossArchitectures reproduces the
// paper's methodology: position the workload partway on one machine,
// checkpoint, then resume the same functional state on each of the three
// architectures. Every resumed run must complete and pass the workload's
// bit-exact validation.
func TestCheckpointMidRunTransfersAcrossArchitectures(t *testing.T) {
	mk := func() workload.Workload {
		return workload.NewEqntott(workload.EqntottParams{Words: 64, Iters: 40})
	}
	// Position: run ~30% of the way on the baseline machine.
	posW := mk()
	pos := configure(t, posW, core.SharedMem)
	next, halted, err := pos.RunWindow(0, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if halted {
		t.Fatalf("positioning run finished too early (%d cycles); enlarge the workload", next)
	}
	ck := pos.Checkpoint()

	// Round-trip through the serialized form.
	var buf bytes.Buffer
	if err := core.WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	ck2, err := core.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for _, arch := range core.Arches() {
		w := mk()
		m := configure(t, w, arch)
		if err := m.Restore(ck2); err != nil {
			t.Fatal(err)
		}
		if _, halted, err := m.RunWindow(0, 50_000_000); err != nil {
			t.Fatalf("%s: %v", arch, err)
		} else if !halted {
			t.Fatalf("%s: resumed run did not finish", arch)
		}
		if err := w.Validate(m); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
	}
}

// TestCheckpointIdempotentResume: restoring a checkpoint onto the same
// architecture and finishing must give the exact result of the
// uninterrupted run.
func TestCheckpointIdempotentResume(t *testing.T) {
	mk := func() workload.Workload {
		return workload.NewEar(workload.EarParams{Channels: 16, Samples: 60})
	}
	// Uninterrupted reference run.
	wRef := mk()
	mRef := configure(t, wRef, core.SharedL2)
	if _, err := mRef.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := wRef.Validate(mRef); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: stop, checkpoint, restore into a fresh machine,
	// finish.
	wA := mk()
	mA := configure(t, wA, core.SharedL2)
	if _, halted, err := mA.RunWindow(0, 20000); err != nil || halted {
		t.Fatalf("positioning: halted=%v err=%v", halted, err)
	}
	ck := mA.Checkpoint()
	wB := mk()
	mB := configure(t, wB, core.SharedL2)
	if err := mB.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if _, halted, err := mB.RunWindow(0, 50_000_000); err != nil || !halted {
		t.Fatalf("resume: halted=%v err=%v", halted, err)
	}
	if err := wB.Validate(mB); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsMismatchedShape(t *testing.T) {
	w := workload.NewEar(workload.EarParams{Channels: 16, Samples: 10})
	m := configure(t, w, core.SharedMem)
	ck := m.Checkpoint()

	// Wrong CPU count.
	cfg := memsys.DefaultConfig()
	cfg.NumCPUs = 2
	m2, err := core.NewMachine(core.SharedMem, core.ModelMipsy, cfg, w.MemBytes())
	if err != nil {
		t.Fatal(err)
	}
	w2 := workload.NewEar(workload.EarParams{Channels: 16, Samples: 10})
	if err := w2.Configure(m2); err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(ck); err == nil {
		t.Error("restore with a different CPU count must fail")
	}

	// Wrong memory size.
	m3, err := core.NewMachine(core.SharedMem, core.ModelMipsy, memsys.DefaultConfig(), w.MemBytes()/2)
	if err != nil {
		t.Fatal(err)
	}
	ck3 := &core.Checkpoint{Mem: mem.Snapshot{Size: 16, Pages: make([][]byte, 1)}, Contexts: ck.Contexts}
	if err := m3.Restore(ck3); err == nil {
		t.Error("restore with a different memory size must fail")
	}
}
