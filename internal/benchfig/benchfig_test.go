package benchfig

import (
	"slices"
	"strings"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// TestTableInvariants holds the figure table to what its readers rely
// on: unique names (BENCH_figures.json keys), a full and a quick
// variant for every workload cmd/experiments runs, the memory-bound
// rows exactly the three *_MemBound sentinels whose skipped cycles
// TestLedger floors, and only they with a data set of their own, built
// for the application the row names. The ablation's first point must
// be the paper's L2, since cmd/experiments reads it from the
// ablation's figure cell instead of running it again.
func TestTableInvariants(t *testing.T) {
	names := map[string]bool{}
	memBound := 0
	for _, f := range Figures() {
		if names[f.Name] {
			t.Errorf("%s: duplicate name", f.Name)
		}
		names[f.Name] = true
		if f.MemBound() != strings.HasSuffix(f.Name, "_MemBound") {
			t.Errorf("%s: MemBound() = %v", f.Name, f.MemBound())
		}
		if (f.New != nil) != f.MemBound() {
			t.Errorf("%s: has a constructor: %v, is memory-bound: %v", f.Name, f.New != nil, f.MemBound())
		}
		if f.MemBound() {
			memBound++
			if f.Title != "" {
				t.Errorf("%s: a memory-bound row has title %q", f.Name, f.Title)
			}
		} else if f.Title == "" {
			t.Errorf("%s: a paper-parameter row has no title", f.Name)
		}
		if w, err := f.Workload(); err != nil || w.Name() != f.App {
			t.Errorf("%s: builds %v (%v), row says %q", f.Name, w, err, f.App)
		}
		if f.Title != "" {
			hasVariants(t, f.App)
		}
	}
	if memBound != 3 {
		t.Errorf("%d memory-bound rows, want 3", memBound)
	}
	ab := Ablation()
	hasVariants(t, ab.App)
	if got, want := ab.L2Assocs[0], memsys.DefaultConfig().L2Assoc; got != want {
		t.Errorf("the ablation's first L2 is %d-way, the paper's %d-way", got, want)
	}
	if !slices.ContainsFunc(Figures(), func(f Figure) bool { return f.Title != "" && f.App == ab.App && f.Model == core.ModelMipsy }) {
		t.Errorf("no titled Mipsy row runs the ablation's %s", ab.App)
	}
}

func hasVariants(t *testing.T, app string) {
	t.Helper()
	if _, err := workload.New(app); err != nil {
		t.Error(err)
	}
	if _, err := workload.NewQuick(app); err != nil {
		t.Error(err)
	}
}
