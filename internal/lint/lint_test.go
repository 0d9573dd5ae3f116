package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cmpsim/internal/lint"
)

// wantRe matches the analysistest-style expectation comments used in
// the fixtures: `// want "substring"`.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// loadWants scans a fixture file for expectations, keyed by line.
func loadWants(t *testing.T, path string) map[int]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wants := map[int]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
			wants[line] = m[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestAnalyzersCatchFixtures loads each registered analyzer's
// seeded-violation fixture, testdata/src/<name>, and requires the
// findings to match the `// want` annotations exactly — no misses, no
// extras, and suppressed lines stay silent.
func TestAnalyzersCatchFixtures(t *testing.T) {
	for _, a := range lint.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := "testdata/src/" + a.Name
			pkgs, err := lint.Load("./" + dir)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			// Masquerade as a simulator package, inside every scope.
			pkgs[0].RelPath = "internal/cache"
			diags, err := lint.RunAnalyzers([]*lint.Analyzer{a}, pkgs)
			if err != nil {
				t.Fatal(err)
			}

			wants := loadWants(t, filepath.Join(dir, "fixture.go"))
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want annotations", dir)
			}
			matched := map[int]bool{}
			for _, d := range diags {
				want, ok := wants[d.Pos.Line]
				if !ok {
					t.Errorf("unexpected finding at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
					continue
				}
				if !strings.Contains(d.Message, want) {
					t.Errorf("finding at line %d = %q, want substring %q", d.Pos.Line, d.Message, want)
				}
				matched[d.Pos.Line] = true
			}
			for line, want := range wants {
				if !matched[line] {
					t.Errorf("missed expected finding at line %d (want %q)", line, want)
				}
			}
		})
	}
}

// TestShippedTreeClean runs the full suite over the real module and
// requires zero findings: the simulator itself must satisfy its own
// invariants (violations that are deliberate carry simlint:allow
// comments in the source).
func TestShippedTreeClean(t *testing.T) {
	pkgs, err := lint.Load("cmpsim/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing the tree", len(pkgs))
	}
	diags, err := lint.RunAnalyzers(lint.Analyzers(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestDeterminismScopeExcludesDriverPool pins the goroutine boundary:
// the determinism analyzer's goroutine ban covers the simulation core,
// while the driver-level parallelism one level up — internal/runner's
// worker pool, internal/cli and the cmd/ drivers that dispatch through
// them — is
// deliberately outside its scope. If the scope ever grows to swallow
// the runner (breaking the parallel experiment driver) or shrinks to
// exempt part of the core (losing the in-run goroutine ban), this
// fails before the tree does.
func TestDeterminismScopeExcludesDriverPool(t *testing.T) {
	scope := lint.DeterminismAnalyzer.Scope
	for _, rel := range []string{
		"internal/cache", "internal/coherence", "internal/core",
		"internal/cpu", "internal/cpu/mxs", "internal/memsys",
		"internal/interconnect", "internal/event",
	} {
		if !scope(rel) {
			t.Errorf("simulation-core package %s escaped the determinism scope", rel)
		}
	}
	for _, rel := range []string{
		"internal/runner", "internal/cli", "cmd/experiments", "cmd/sweep", "cmd/cmpsim",
		"internal/workload", "internal/stats", "internal/obsv",
	} {
		if scope(rel) {
			t.Errorf("driver-level package %s must stay outside the determinism scope (the runner pool spawns goroutines by design)", rel)
		}
	}
}
