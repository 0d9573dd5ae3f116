// Package lint is simlint's analysis framework: a small, dependency-free
// re-implementation of the go/analysis driver model on top of go/parser
// and go/types (the module deliberately has no external dependencies, so
// golang.org/x/tools is not available). It loads and type-checks the
// module's packages with the standard library's source importer and runs
// a fixed suite of simulator-invariant analyzers over them:
//
//   - determinism: no wall-clock, global rand, goroutines, map-order
//     iteration or os/flag/syscall imports inside the simulator state
//     machines
//   - cycleflow: uint64 cycle arithmetic cannot wrap (subtractions must
//     be guarded, blessed through internal/cyc, or suppressed) and
//     cycle-taking functions cannot return a completion before "now"
//   - statreg: every counter field of a *Stats struct is read by some
//     report/merge path, so counters cannot be dropped silently
//   - neutral: no value produced by the observability packages flows
//     into simulator state or control flow
//
// A finding is suppressed by a comment on the same line or the line
// above, naming the analyzer:
//
//	//simlint:allow determinism — iteration order is unobservable here
//
// New analyzers implement Run (per package) or RunModule (whole module
// at once) and are registered in Analyzers; see DESIGN.md for the
// step-by-step recipe.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Exactly one of Run / RunModule is
// set: Run sees one package at a time; RunModule sees every loaded
// package in one call (for cross-package reachability like statreg).
type Analyzer struct {
	Name string
	Doc  string

	// Scope reports whether the analyzer applies to a package (by its
	// module-relative import path, e.g. "internal/cache"). nil means
	// every package.
	Scope func(relPath string) bool

	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// Analyzers is the simlint suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CycleflowAnalyzer,
		StatregAnalyzer,
		NeutralAnalyzer,
	}
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos unless a simlint:allow comment
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	report(p.Pkg, p.Analyzer, p.diags, pos, format, args...)
}

// ModulePass is a module-wide analyzer's view of every loaded package.
// Packages is the analyzer's scoped slice; the full module (for
// cross-package reachability and the shared call graph) is available
// through Graph and allPackages.
type ModulePass struct {
	Analyzer *Analyzer
	Packages []*Package
	diags    *[]Diagnostic
	all      []*Package
	shared   *moduleShared
}

// Reportf records a finding positioned in pkg.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	report(pkg, p.Analyzer, p.diags, pos, format, args...)
}

func report(pkg *Package, a *Analyzer, diags *[]Diagnostic, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	if pkg.allowedAt(position, a.Name) {
		return
	}
	*diags = append(*diags, Diagnostic{
		Pos:      position,
		Analyzer: a.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is one loaded, type-checked package.
type Package struct {
	Path    string // full import path ("cmpsim/internal/cache")
	RelPath string // module-relative ("internal/cache"; "" for the root)
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	// allow maps (file base name, line) to the analyzer names a
	// simlint:allow comment suppresses there.
	allow map[allowKey]bool
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

func (p *Package) allowedAt(pos token.Position, analyzer string) bool {
	k := allowKey{file: pos.Filename, line: pos.Line, analyzer: analyzer}
	return p.allow[k]
}

// collectAllows indexes simlint:allow comments. A comment suppresses
// findings on its own line and on the following line, so both trailing
// and preceding-line placement work.
func (p *Package) collectAllows() {
	p.allow = map[allowKey]bool{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "simlint:allow")
				if idx < 0 {
					continue
				}
				rest := strings.TrimSpace(text[idx+len("simlint:allow"):])
				name := rest
				if i := strings.IndexAny(rest, " \t—-("); i >= 0 {
					name = rest[:i]
				}
				if name == "" {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				p.allow[allowKey{pos.Filename, pos.Line, name}] = true
				p.allow[allowKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
}

// Loader loads and type-checks module packages, sharing one file set
// and one source importer (which caches transitively-imported packages
// across loads).
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer

	// preloaded maps import paths to packages registered via Preload,
	// consulted before the source importer. Fixture tests use it to
	// stand in for module packages (a fake internal/obsv the go tool
	// could never resolve from a testdata directory).
	preloaded map[string]*types.Package
}

// NewLoader returns a loader backed by the standard library's source
// importer (type-checks imports from source; no export data needed).
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:      fset,
		imp:       importer.ForCompiler(fset, "source", nil),
		preloaded: map[string]*types.Package{},
	}
}

// Preload registers an already-loaded package under its import path so
// later Loads can import it by that path.
func (l *Loader) Preload(p *Package) { l.preloaded[p.Path] = p.Types }

// loaderImporter resolves preloaded paths first, then delegates to the
// source importer.
type loaderImporter struct{ l *Loader }

func (li loaderImporter) Import(path string) (*types.Package, error) {
	if p := li.l.preloaded[path]; p != nil {
		return p, nil
	}
	return li.l.imp.Import(path)
}

func (li loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := li.l.preloaded[path]; p != nil {
		return p, nil
	}
	if from, ok := li.l.imp.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return li.l.imp.Import(path)
}

// Load parses and type-checks the non-test .go files of the package in
// dir under the given import path.
func (l *Loader) Load(dir, path, relPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", n, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: loaderImporter{l},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-check %s: %v", path, typeErrs[0])
	}
	p := &Package{
		Path:    path,
		RelPath: relPath,
		Dir:     dir,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	p.collectAllows()
	return p, nil
}

// ModulePath reads the module path from root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule loads every package of the module rooted at root, skipping
// testdata and hidden directories.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		imp := modPath
		relPath := ""
		if rel != "." {
			imp = modPath + "/" + rel
			relPath = rel
		}
		pkg, err := l.Load(path, imp, relPath)
		if err != nil {
			return fmt.Errorf("%s: %w", imp, err)
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// RunAnalyzers runs the given analyzers over the packages and returns
// the findings sorted by position.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	shared := &moduleShared{}
	for _, a := range analyzers {
		var scoped []*Package
		for _, pkg := range pkgs {
			if a.Scope == nil || a.Scope(pkg.RelPath) {
				scoped = append(scoped, pkg)
			}
		}
		switch {
		case a.RunModule != nil:
			mp := &ModulePass{Analyzer: a, Packages: scoped, diags: &diags, all: pkgs, shared: shared}
			if err := a.RunModule(mp); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pkg := range scoped {
				pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
