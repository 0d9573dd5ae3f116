package benchfig

import (
	"strings"
	"testing"

	"cmpsim/internal/workload"
)

// TestTableInvariants holds the figure table to what its readers rely
// on: unique names (BENCH_figures.json keys), constructors that build
// the application the row names, a full and a quick variant for every
// workload cmd/experiments runs, and the memory-bound rows exactly the
// three *_MemBound sentinels cmd/benchjson gates on floors.
func TestTableInvariants(t *testing.T) {
	names := map[string]bool{}
	memBound := 0
	for _, f := range Figures() {
		if names[f.Name] {
			t.Errorf("%s: duplicate name", f.Name)
		}
		names[f.Name] = true
		if got := f.New().Name(); got != f.App {
			t.Errorf("%s: constructor builds %q, row says %q", f.Name, got, f.App)
		}
		if f.MemBound() != strings.HasSuffix(f.Name, "_MemBound") {
			t.Errorf("%s: MemBound() = %v", f.Name, f.MemBound())
		}
		if f.MemBound() {
			memBound++
			if f.Title != "" {
				t.Errorf("%s: a memory-bound row has title %q", f.Name, f.Title)
			}
		} else if f.Title == "" {
			t.Errorf("%s: a paper-parameter row has no title", f.Name)
		}
		if f.Title != "" {
			hasVariants(t, f.App)
		}
	}
	if memBound != 3 {
		t.Errorf("%d memory-bound rows, want 3", memBound)
	}
	hasVariants(t, Ablation().App)
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
