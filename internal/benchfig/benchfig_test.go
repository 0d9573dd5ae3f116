package benchfig

import (
	"slices"
	"strings"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/workload"
)

// TestTableInvariants holds the figure table to what its readers rely
// on: unique names (BENCH_figures.json keys), a full and a quick
// variant for every workload cmd/experiments runs, the memory-bound
// rows exactly the three *_MemBound sentinels whose skipped cycles
// TestLedger floors, and only they with a data set of their own, built
// for the application the row names. Each sweep has a unique name,
// both sizes of its app, a direction of ±1, knobs from the table at
// ascending values their fields hold, and at most one point at the
// paper's configuration; a titled sweep's is a titled figure's cell,
// which cmd/experiments reads instead of running it again.
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
	for _, s := range Sweeps() {
		if names[s.Name] || !slices.IsSorted(s.Values) || s.Dir*s.Dir != 1 {
			t.Errorf("%s: a duplicate name, values %v not ascending, or direction %d not ±1", s.Name, s.Values, s.Dir)
		}
		names[s.Name] = true
		hasVariants(t, s.App)
		defaults := 0
		for _, v := range s.Values {
			for _, b := range append(s.Base, Setting{s.Knob, v}) {
				if k, ok := Knobs[b.Knob]; !ok || b.Value > k.Max {
					t.Errorf("%s: knob %q at %d is not in the table or does not fit its field", s.Name, b.Knob, b.Value)
				}
			}
			if s.Default(v) {
				defaults++
			}
		}
		titled := slices.ContainsFunc(Figures(), func(f Figure) bool { return f.Title != "" && f.App == s.App && f.Model == core.ModelMipsy })
		if defaults > 1 || s.Title != "" && defaults == 1 && !titled {
			t.Errorf("%s: %d points at the paper's configuration, titled %q, its app in a titled Mipsy figure: %v", s.Name, defaults, s.Title, titled)
		}
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
