package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"cmpsim/internal/lint"
)

// The fixture loader is shared across subtests: the source importer
// caches every transitively type-checked package, so one loader keeps
// the suite fast.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
)

func sharedLoader() *lint.Loader {
	loaderOnce.Do(func() { loader = lint.NewLoader() })
	return loader
}

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

// analyzerByName fetches one analyzer from the registered suite, so the
// test exercises exactly what cmd/simlint runs.
func analyzerByName(t *testing.T, name string) *lint.Analyzer {
	t.Helper()
	for _, a := range lint.Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("analyzer %q not registered", name)
	return nil
}

// TestAnalyzersCatchFixtures loads each analyzer's seeded-violation
// fixture and requires the findings to match the `// want` annotations
// exactly — no misses, no extras, and suppressed lines stay silent.
func TestAnalyzersCatchFixtures(t *testing.T) {
	// Each fixture masquerades as an in-scope simulator package via its
	// fake relPath, internal/cache; determinism-driver stands for a
	// package outside the simulator core.
	for _, c := range []struct{ name, fixture, rel string }{
		{"determinism", "determinism", "internal/cache"},
		{"determinism", "determinism-driver", "internal/workload"},
		{"cycleflow", "cycleflow", "internal/cache"},
		{"statreg", "statreg", "internal/cache"},
		{"neutral", "neutral", "internal/cache"},
	} {
		name := c.name
		t.Run(c.fixture, func(t *testing.T) {
			a := analyzerByName(t, name)
			dir := filepath.Join("testdata", "src", c.fixture)
			if name == "neutral" {
				// The neutral fixture consumes a stand-in observability
				// package; preload it under a path whose suffix marks it as
				// the obs surface.
				obs, err := sharedLoader().Load(filepath.Join(dir, "obsv"),
					"cmpsim/lintfixture/internal/obsv", "internal/obsv")
				if err != nil {
					t.Fatalf("load obsv fixture: %v", err)
				}
				sharedLoader().Preload(obs)
			}
			pkg, err := sharedLoader().Load(dir, "cmpsim/lintfixture/"+c.fixture, c.rel)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			if pkg == nil {
				t.Fatalf("fixture %s has no files", dir)
			}
			diags, err := lint.RunAnalyzers([]*lint.Analyzer{a}, []*lint.Package{pkg})
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

// The real-module load is shared across the whole-tree tests:
// type-checking the module from source once is expensive enough to
// amortize.
var (
	moduleOnce sync.Once
	modulePkgs []*lint.Package
	moduleRoot string
	moduleErr  error
)

func loadRealModule(t *testing.T) (string, []*lint.Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	moduleOnce.Do(func() {
		moduleRoot, moduleErr = lint.FindModuleRoot(".")
		if moduleErr != nil {
			return
		}
		modulePkgs, moduleErr = sharedLoader().LoadModule(moduleRoot)
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleRoot, modulePkgs
}

// TestShippedTreeClean runs the full suite over the real module and
// requires zero findings: the simulator itself must satisfy its own
// invariants (violations that are deliberate carry simlint:allow
// comments in the source).
func TestShippedTreeClean(t *testing.T) {
	root, pkgs := loadRealModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; loader is missing the tree", len(pkgs), root)
	}
	diags, err := lint.RunAnalyzers(lint.Analyzers(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		rel, rerr := filepath.Rel(root, d.Pos.Filename)
		if rerr != nil {
			rel = d.Pos.Filename
		}
		t.Errorf("%s", fmt.Sprintf("%s:%d:%d: [%s] %s", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
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
