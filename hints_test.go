package cmpsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/runner"
)

// hintRun runs job's cell to its end and returns its RunResult as JSON,
// with the skipped-cycle count. With hide set each CPU is wrapped in a
// coreCounter, which embeds only core.Core and forwards SkipCycles, as
// the benchmark's counting probe does: it hides every other capability
// of the CPU, the exact-hint declaration among them, so the cycle loop's
// jump asks it for NextWork.
func hintRun(t *testing.T, job runner.Job, hide bool) []byte {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	w, err := job.Workload()
	must(err)
	m, err := core.NewMachine(job.Arch, job.Model, job.Cfg, w.MemBytes())
	must(err)
	must(w.Configure(m))
	var work ledgerWork
	for k, c := range m.CPUs {
		if _, ok := c.(interface{ ExactHints() }); !ok {
			t.Fatalf("cpu %d (%T) does not declare exact hints", k, c)
		}
		if hide {
			m.CPUs[k] = &coreCounter{c, &work}
		}
	}
	res, err := m.Run(2_000_000_000)
	must(err)
	must(w.Validate(m))
	if hide && work.NextWork == 0 {
		t.Error("with the capability hidden, the jump never asked NextWork")
	}
	out, err := json.Marshal(res)
	must(err)
	return fmt.Appendf(out, "\nskipped %d", m.SkippedCycles())
}

// TestExactHintsHiddenMatch runs the 42 quick cells with the exact-hint
// capability present, so the quiescence jump trusts the wake cycles, and
// hidden, so it scans NextWork: the RunResults and the skipped cycles
// must be byte-identical.
func TestExactHintsHiddenMatch(t *testing.T) {
	jobs, _ := ledgerJobs()
	cells := 0
	for _, job := range jobs {
		if !strings.HasPrefix(job.Tag, "quick/") {
			continue
		}
		cells++
		t.Run(job.Tag, func(t *testing.T) {
			t.Parallel()
			trusted, scanned := hintRun(t, job, false), hintRun(t, job, true)
			if !bytes.Equal(trusted, scanned) {
				t.Errorf("results differ:\ntrusted: %s\nscanned: %s", trusted, scanned)
			}
		})
	}
	if cells != 42 {
		t.Errorf("ran %d quick cells, want 42", cells)
	}
}
