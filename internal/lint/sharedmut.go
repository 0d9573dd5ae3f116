package lint

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SharedmutAnalyzer machine-checks the state-ownership precondition of
// the planned parallel tick (ROADMAP: "shard one big simulation across
// host cores"). CPUs and their private caches can only advance
// concurrently if every piece of simulator state is either per-CPU
// owned (touched by one CPU's tick) or shared-and-arbitrated (mutated
// only at declared arbitration points that a parallel scheduler will
// serialize at window boundaries). Today those invariants live in
// reviewers' heads; this analyzer writes them down and regresses them.
//
// Mechanism: build the module call graph, take every Tick / RunWindow
// method in the simulator packages as a root, and trace which reachable
// functions write which struct fields. A second traversal stops at the
// arbitration points — the bus, directory, bank and resource methods
// (plus anything annotated //simlint:arbiter), and the serial cycle
// loop itself — yielding the set of functions a ticking CPU can reach
// *without* crossing an arbiter. Every field of every struct declared
// in the simulator packages is then classified:
//
//   - per-cpu: declared in a per-CPU-owned domain (internal/cpu and its
//     models, internal/cache instances, or a struct annotated
//     //simlint:owned per-cpu);
//   - shared-arbitrated: shared-domain state whose every reachable
//     writer is an arbitration point or sits beneath one;
//   - flagged: shared-domain state writable on an arbiter-free path
//     from a tick — the parallel-tick hazard, reported as a diagnostic;
//   - tick-const: never written by any function reachable from a tick
//     (configuration and construction-time state).
//
// The classification is exported as a deterministic JSON report
// (`simlint -ownership-out ownership.json`, golden-tested), which is
// the work list and regression anchor for the parallel-tick PR: a
// refactor that silently turns an arbitrated field into a flagged one
// fails CI before it can race.
//
// A justified hazard is suppressed with //simlint:allow sharedmut; a
// struct that is per-CPU by construction (e.g. indexed by cpu id
// everywhere) is declared with //simlint:owned per-cpu on its type; a
// method that *is* an arbitration mechanism is declared with
// //simlint:arbiter on its declaration.
var SharedmutAnalyzer = &Analyzer{
	Name:      "sharedmut",
	Doc:       "classify simulator state as per-CPU vs shared; flag shared state written outside declared arbitration points",
	Scope:     scopeUnder(ownershipPackages...),
	RunModule: runSharedmut,
}

// ownershipPackages are the simulator packages whose struct fields get
// classified.
var ownershipPackages = []string{
	"internal/core", "internal/cpu", "internal/cache",
	"internal/memsys", "internal/coherence", "internal/interconnect",
}

// perCPUDefault lists the packages whose types are per-CPU owned by
// construction: each CPU model instance belongs to exactly one CPU, and
// cache.Cache instances are owned by their containing composition (the
// private L1s per CPU; the shared L2 only mutates through arbitrated
// memsys methods, which the memsys classification covers).
var perCPUDefault = map[string]bool{
	"internal/cpu":       true,
	"internal/cpu/mipsy": true,
	"internal/cpu/mxs":   true,
	"internal/cache":     true,
}

// builtinArbiters are the always-on arbitration points: the snoop bus,
// the directory, the contended-resource acquire, and the serial cycle
// loop itself (RunWindow/jumpTarget execute strictly serially and in
// fixed CPU rotation — they are the master arbiter a parallel scheduler
// must reproduce at window boundaries). Matched by (package suffix,
// receiver, method). Extend in source with //simlint:arbiter.
var builtinArbiters = []struct{ pkgSuffix, recv, name string }{
	{"internal/interconnect", "Resource", "Acquire"},
	{"internal/interconnect", "Banks", "Acquire"},
	{"internal/coherence", "Snoop", "Read"},
	{"internal/coherence", "Snoop", "Write"},
	{"internal/coherence", "Snoop", "Upgrade"},
	{"internal/coherence", "Directory", "Write"},
	{"internal/coherence", "Directory", "L2Evict"},
	{"internal/coherence", "Directory", "AddSharer"},
	{"internal/coherence", "Directory", "DropSharer"},
	{"internal/core", "Machine", "RunWindow"},
	{"internal/core", "Machine", "jumpTarget"},
}

// OwnershipReport is the machine-readable classification emitted by
// `simlint -ownership-out`. Everything is sorted, so byte-identical
// output is a golden-testable property.
type OwnershipReport struct {
	// Roots are the tick entry points the reachability starts from.
	Roots []string `json:"roots"`
	// Arbiters are the declared arbitration points (built-in + annotated).
	Arbiters []string `json:"arbiters"`
	// Fields classifies every struct field of the simulator packages.
	Fields []OwnershipField `json:"fields"`
}

// OwnershipField is one struct field's classification.
type OwnershipField struct {
	Package string `json:"package"` // module-relative package path
	Struct  string `json:"struct"`
	Field   string `json:"field"`
	Type    string `json:"type"`
	// Class is "per-cpu", "shared-arbitrated", "flagged", or
	// "tick-const".
	Class   string            `json:"class"`
	Writers []OwnershipWriter `json:"writers,omitempty"`
}

// OwnershipWriter is one function that writes the field and is
// reachable from a tick root.
type OwnershipWriter struct {
	Func string `json:"func"`
	// Arbitrated is true when every root→writer path crosses an
	// arbitration point (or the writer is one).
	Arbitrated bool `json:"arbitrated"`
	// Path is one example root→writer call chain.
	Path string `json:"path"`
}

// MarshalIndent renders the report as stable, indented JSON.
func (r *OwnershipReport) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ownershipDiag is a flagged-field diagnostic with a position.
type ownershipDiag struct {
	pkg *Package
	pos token.Pos
	msg string
}

func runSharedmut(pass *ModulePass) error {
	_, diags := ownership(pass.Packages, pass.Graph())
	for _, d := range diags {
		pass.Reportf(d.pkg, d.pos, "%s", d.msg)
	}
	return nil
}

// Ownership computes the classification report over the module's
// packages (the caller passes the full LoadModule result; scoping to
// the simulator packages happens internally).
func Ownership(pkgs []*Package) (*OwnershipReport, error) {
	scope := scopeUnder(ownershipPackages...)
	var scoped []*Package
	for _, pkg := range pkgs {
		if scope(pkg.RelPath) {
			scoped = append(scoped, pkg)
		}
	}
	rep, _ := ownership(scoped, BuildCallGraph(pkgs))
	return rep, nil
}

func ownership(scoped []*Package, graph *CallGraph) (*OwnershipReport, []ownershipDiag) {
	inScope := map[string]*Package{}
	for _, pkg := range scoped {
		inScope[pkg.Path] = pkg
	}

	// Directives: per-struct ownership overrides and extra arbiters.
	ownedDir := map[fieldKey]string{} // keyed by (pkg, type, "") → "per-cpu"/"shared"
	arbiters := map[FuncKey]bool{}
	for _, pkg := range scoped {
		collectOwnershipDirectives(pkg, ownedDir, arbiters)
	}
	for key, node := range graph.Nodes {
		for _, b := range builtinArbiters {
			if node.Key.Recv == b.recv && node.Key.Name == b.name && strings.HasSuffix(key.Pkg, b.pkgSuffix) {
				arbiters[key] = true
			}
		}
	}

	// Roots: every Tick / RunWindow method in the simulator packages.
	var roots []FuncKey
	for key := range graph.Nodes {
		if inScope[key.Pkg] == nil || key.Recv == "" {
			continue
		}
		if key.Name == "Tick" || key.Name == "RunWindow" {
			roots = append(roots, key)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return keyLess(roots[i], roots[j]) })

	// Full reachability, and the arbiter-free ("unprotected") slice.
	reach := graph.Reachable(roots, ReachOpts{})
	unprot := graph.Reachable(roots, ReachOpts{Boundary: func(k FuncKey) bool { return arbiters[k] }})

	// Collect field writes in reachable simulator functions.
	type writerInfo struct {
		arbitrated bool
		path       []FuncKey
	}
	writers := map[fieldKey]map[FuncKey]writerInfo{}
	for key := range reach {
		node := graph.Nodes[key]
		if node == nil || inScope[key.Pkg] == nil {
			continue
		}
		pkg := node.Pkg
		arb := arbiters[key]
		_, inUnprot := unprot[key]
		protected := arb || !inUnprot
		ast.Inspect(node.Decl, func(n ast.Node) bool {
			for _, lhs := range writeTargets(n) {
				fk, ok := fieldWriteKey(pkg.Info, lhs)
				if !ok {
					continue
				}
				if inScope[fk.pkgPath] == nil {
					continue
				}
				m := writers[fk]
				if m == nil {
					m = map[FuncKey]writerInfo{}
					writers[fk] = m
				}
				if prev, seen := m[key]; !seen || (prev.arbitrated && !protected) {
					var path []FuncKey
					if protected {
						path = Path(reach, key)
					} else {
						path = Path(unprot, key)
					}
					m[key] = writerInfo{arbitrated: protected, path: path}
				}
			}
			return true
		})
	}

	// Classify every struct field declared in the simulator packages.
	rep := &OwnershipReport{}
	for _, r := range roots {
		rep.Roots = append(rep.Roots, r.String())
	}
	for a := range arbiters {
		rep.Arbiters = append(rep.Arbiters, a.String())
	}
	sort.Strings(rep.Arbiters)

	var diags []ownershipDiag
	for _, pkg := range scoped {
		scope := pkg.Types.Scope()
		names := scope.Names()
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			domain := structDomain(pkg, tn.Name(), ownedDir)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				fk := fieldKey{pkg.Path, tn.Name(), f.Name()}
				of := OwnershipField{
					Package: pkg.RelPath,
					Struct:  tn.Name(),
					Field:   f.Name(),
					Type:    types.TypeString(f.Type(), relativeQualifier),
				}
				ws := writers[fk]
				allArbitrated := true
				var hazard *writerInfo
				var hazardKey FuncKey
				for wk, wi := range ws {
					wi := wi
					of.Writers = append(of.Writers, OwnershipWriter{
						Func:       wk.String(),
						Arbitrated: wi.arbitrated,
						Path:       PathString(wi.path),
					})
					if !wi.arbitrated {
						allArbitrated = false
						if hazard == nil || keyLess(wk, hazardKey) {
							hazard, hazardKey = &wi, wk
						}
					}
				}
				sort.Slice(of.Writers, func(a, b int) bool { return of.Writers[a].Func < of.Writers[b].Func })
				switch {
				case len(ws) == 0:
					of.Class = "tick-const"
				case domain == "per-cpu":
					of.Class = "per-cpu"
				case allArbitrated:
					of.Class = "shared-arbitrated"
				default:
					of.Class = "flagged"
					diags = append(diags, ownershipDiag{
						pkg: pkg,
						pos: f.Pos(),
						msg: "shared field " + shortPkg(pkg.Path) + "." + tn.Name() + "." + f.Name() +
							" is written on an arbiter-free path from a tick (" + PathString(hazard.path) +
							"); a parallel tick would race here — route the write through an arbitration point, " +
							"declare the struct //simlint:owned per-cpu, or justify with //simlint:allow sharedmut",
					})
				}
				rep.Fields = append(rep.Fields, of)
			}
		}
	}
	sort.Slice(rep.Fields, func(i, j int) bool {
		a, b := rep.Fields[i], rep.Fields[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.Struct != b.Struct {
			return a.Struct < b.Struct
		}
		return a.Field < b.Field
	})
	sort.Slice(diags, func(i, j int) bool { return diags[i].msg < diags[j].msg })
	return rep, diags
}

// structDomain resolves a struct's ownership domain: explicit
// //simlint:owned directive first, then the package default.
func structDomain(pkg *Package, typeName string, ownedDir map[fieldKey]string) string {
	if d, ok := ownedDir[fieldKey{pkg.Path, typeName, ""}]; ok {
		return d
	}
	if perCPUDefault[pkg.RelPath] {
		return "per-cpu"
	}
	return "shared"
}

// relativeQualifier renders cross-package type names as pkg.Type.
func relativeQualifier(p *types.Package) string { return p.Name() }

// collectOwnershipDirectives scans pkg for //simlint:owned type
// directives and //simlint:arbiter function directives.
func collectOwnershipDirectives(pkg *Package, owned map[fieldKey]string, arbiters map[FuncKey]bool) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = d.Doc
					}
					if cls, ok := ownedDirective(doc); ok {
						owned[fieldKey{pkg.Path, ts.Name.Name, ""}] = cls
					}
				}
			case *ast.FuncDecl:
				if hasDirective(d.Doc, "simlint:arbiter") {
					if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						if key, ok := funcKeyOf(obj); ok {
							arbiters[key] = true
						}
					}
				}
			}
		}
	}
}

// ownedDirective extracts "per-cpu" or "shared" from a
// //simlint:owned comment in the doc group.
func ownedDirective(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		idx := strings.Index(c.Text, "simlint:owned")
		if idx < 0 {
			continue
		}
		rest := strings.TrimSpace(c.Text[idx+len("simlint:owned"):])
		for _, cls := range []string{"per-cpu", "shared"} {
			if strings.HasPrefix(rest, cls) {
				return cls, true
			}
		}
	}
	return "", false
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, directive) {
			return true
		}
	}
	return false
}

// writeTargets returns the lvalue expressions a statement writes to.
func writeTargets(n ast.Node) []ast.Expr {
	switch s := n.(type) {
	case *ast.AssignStmt:
		return s.Lhs
	case *ast.IncDecStmt:
		return []ast.Expr{s.X}
	}
	return nil
}

// fieldWriteKey resolves an lvalue to the struct field it stores into,
// climbing through index expressions, stars and parens: `s.a[i].f = x`
// writes field f (and, at the top, field a's element — the outermost
// selector is the one charged).
func fieldWriteKey(info *types.Info, lhs ast.Expr) (fieldKey, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			s, ok := info.Selections[e]
			if !ok || s.Kind() != types.FieldVal {
				return fieldKey{}, false
			}
			return fieldKeyOf(s)
		default:
			return fieldKey{}, false
		}
	}
}
