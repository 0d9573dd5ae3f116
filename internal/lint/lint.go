// Package lint is simlint's analysis framework: a small, dependency-free
// re-implementation of the go/analysis driver model on top of go/parser
// and go/types (the module deliberately has no external dependencies, so
// golang.org/x/tools is not available). Load type-checks the module's
// packages from source, taking standard-library imports from the export
// data `go list -export` builds, and RunAnalyzers runs a fixed suite of
// simulator-invariant analyzers over them:
//
//   - determinism: no wall-clock, global rand, goroutines, map-order
//     iteration or os/flag/syscall imports inside the simulator state
//     machines
//   - statreg: every counter field of a *Stats struct is read by some
//     report/merge path, so counters cannot be dropped silently
//
// Each rule is kept for a bug the tests cannot see: an environment read
// in the simulator passes every test while the variable is unset, and a
// counter dropped from every report passes every test that reads it
// directly.
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
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
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
		StatregAnalyzer,
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

// ModulePass is a module-wide analyzer's view of its scoped packages.
type ModulePass struct {
	Analyzer *Analyzer
	Packages []*Package
	diags    *[]Diagnostic
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

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
}

// Load lists patterns with one `go list -export -deps -json`, run in the
// working directory, and returns the module packages they match. Every
// module package (a match or a dependency of one) is parsed and
// type-checked from source exactly once, in the dependency order go list
// prints, so packages share their types.Objects; standard-library
// imports come from the export data go list built.
func Load(patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		pkg, err := check(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		// go list only warns when a pattern matches nothing.
		return nil, fmt.Errorf("go list %s matched no packages", strings.Join(patterns, " "))
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check parses and type-checks one listed module package.
func check(fset *token.FileSet, imp types.Importer, lp listed) (*Package, error) {
	var files []*ast.File
	for _, n := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
	}
	p := &Package{
		Path:    lp.ImportPath,
		RelPath: strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, lp.Module.Path), "/"),
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	p.collectAllows()
	return p, nil
}

// RunAnalyzers runs the given analyzers over the packages and returns
// the findings sorted by position.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		var scoped []*Package
		for _, pkg := range pkgs {
			if a.Scope == nil || a.Scope(pkg.RelPath) {
				scoped = append(scoped, pkg)
			}
		}
		switch {
		case a.RunModule != nil:
			mp := &ModulePass{Analyzer: a, Packages: scoped, diags: &diags}
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
