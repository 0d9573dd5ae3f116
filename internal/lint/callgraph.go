package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is simlint v2's shared call-graph substrate. The module-wide
// analyzers (neutral, cachekey, and hotalloc's propagation pass) all
// need the same question answered: "which functions can run beneath a
// given root?" — where the roots are the simulator's hot entry points
// (Core.Tick, Machine.RunWindow) and the edges must cross package
// boundaries and interface dispatch.
//
// Because the loader type-checks each package independently (the module
// has no x/tools dependency, so there is no shared go/packages
// universe), a function is identified by strings, not object identity:
// (package import path, bare receiver type name, function name). The
// same convention statreg already uses for fields.
//
// Interface calls resolve by name + arity: a call through an interface
// method adds edges to every module method with the same name, parameter
// count and result count. This over-approximates (two unrelated
// interfaces sharing a method shape get cross-edges) but never misses a
// real callee, which is the direction reachability analyses need —
// an extra edge can only add a finding, never hide one.

// FuncKey names one function or method across the module.
type FuncKey struct {
	Pkg  string // full import path ("cmpsim/internal/cache")
	Recv string // bare receiver type name ("Cache"; "" for plain funcs)
	Name string
}

func (k FuncKey) String() string {
	short := shortPkg(k.Pkg)
	if k.Recv != "" {
		return short + "." + k.Recv + "." + k.Name
	}
	return short + "." + k.Name
}

// CallEdge is one static call (or function-value reference) site.
type CallEdge struct {
	To      FuncKey
	Pos     token.Pos
	Guarded bool // the site only executes with a tracer/metrics sink attached
	Iface   bool // resolved through interface dispatch (name+arity match)
	Fatal   bool // the site sits inside panic(...) arguments (the run is dying)
}

// FuncNode is one declared function with its outgoing edges.
type FuncNode struct {
	Key   FuncKey
	Pkg   *Package
	Decl  *ast.FuncDecl
	Edges []CallEdge
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	Nodes map[FuncKey]*FuncNode

	// methodsBySig indexes every declared method by (name, nparams,
	// nresults) for interface dispatch.
	methodsBySig map[methodSig][]FuncKey
}

type methodSig struct {
	name     string
	nparams  int
	nresults int
}

// funcKeyOf renders a types.Func as a FuncKey.
func funcKeyOf(fn *types.Func) (FuncKey, bool) {
	if fn.Pkg() == nil {
		return FuncKey{}, false // builtins, error.Error, etc.
	}
	k := FuncKey{Pkg: fn.Pkg().Path(), Name: fn.Name()}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return FuncKey{}, false
	}
	if recv := sig.Recv(); recv != nil {
		k.Recv = bareTypeName(recv.Type())
		if k.Recv == "" {
			return FuncKey{}, false
		}
	}
	return k, true
}

// bareTypeName unwraps pointers to the named type's bare name.
func bareTypeName(t types.Type) string {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.Interface:
		return "" // anonymous interface
	}
	return ""
}

// BuildCallGraph constructs the call graph over the given packages.
// Function literals contribute their edges to the enclosing declared
// function (a closure built on the hot path runs, at the latest, when
// its creator calls it; attributing its calls upward keeps reachability
// sound without tracking function values through the heap).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:        map[FuncKey]*FuncNode{},
		methodsBySig: map[methodSig][]FuncKey{},
	}
	// Pass 1: declare every FuncDecl as a node, and index methods for
	// interface dispatch.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key, ok := funcKeyOf(obj)
				if !ok {
					continue
				}
				g.Nodes[key] = &FuncNode{Key: key, Pkg: pkg, Decl: fd}
				if key.Recv != "" {
					sig := obj.Type().(*types.Signature)
					ms := methodSig{key.Name, sig.Params().Len(), sig.Results().Len()}
					g.methodsBySig[ms] = append(g.methodsBySig[ms], key)
				}
			}
		}
	}
	for _, keys := range g.methodsBySig {
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	}
	// Pass 2: collect edges.
	for _, pkg := range pkgs {
		g.collectEdges(pkg)
	}
	for _, n := range g.Nodes {
		sortEdges(n.Edges)
	}
	return g
}

func keyLess(a, b FuncKey) bool {
	if a.Pkg != b.Pkg {
		return a.Pkg < b.Pkg
	}
	if a.Recv != b.Recv {
		return a.Recv < b.Recv
	}
	return a.Name < b.Name
}

func sortEdges(edges []CallEdge) {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Pos != edges[j].Pos {
			return edges[i].Pos < edges[j].Pos
		}
		return keyLess(edges[i].To, edges[j].To)
	})
}

// collectEdges walks every function body in pkg, resolving calls and
// method-value references to FuncKeys.
func (g *CallGraph) collectEdges(pkg *Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			fromDecl := enclosingFuncDecl(stack)
			if fromDecl == nil {
				return
			}
			fromObj, ok := info.Defs[fromDecl.Name].(*types.Func)
			if !ok {
				return
			}
			from, ok := funcKeyOf(fromObj)
			if !ok {
				return
			}
			node := g.Nodes[from]
			if node == nil {
				return
			}
			switch n := n.(type) {
			case *ast.Ident:
				// Direct reference to a declared function: a call, or a
				// function value handed somewhere it may later be called.
				fn, ok := info.Uses[n].(*types.Func)
				if !ok {
					return
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return // method idents resolve via their SelectorExpr below
				}
				if to, ok := funcKeyOf(fn); ok {
					node.Edges = append(node.Edges, CallEdge{
						To: to, Pos: n.Pos(), Guarded: tracerGuarded(info, n, stack),
						Fatal: inPanicArgs(info, stack),
					})
				}
			case *ast.SelectorExpr:
				g.selectorEdges(pkg, node, n, stack)
			}
		})
	}
}

// selectorEdges resolves pkg.Func, recv.Method and interface-method
// selections.
func (g *CallGraph) selectorEdges(pkg *Package, node *FuncNode, sel *ast.SelectorExpr, stack []ast.Node) {
	info := pkg.Info
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	guarded := tracerGuarded(info, sel, stack)
	fatal := inPanicArgs(info, stack)
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			// Interface dispatch: edge to the interface method itself plus
			// every module method matching its shape.
			if to, ok := funcKeyOf(fn); ok {
				node.Edges = append(node.Edges, CallEdge{To: to, Pos: sel.Pos(), Guarded: guarded, Iface: true, Fatal: fatal})
			}
			ms := methodSig{fn.Name(), sig.Params().Len(), sig.Results().Len()}
			for _, impl := range g.methodsBySig[ms] {
				node.Edges = append(node.Edges, CallEdge{To: impl, Pos: sel.Pos(), Guarded: guarded, Iface: true, Fatal: fatal})
			}
			return
		}
	}
	if to, ok := funcKeyOf(fn); ok {
		node.Edges = append(node.Edges, CallEdge{To: to, Pos: sel.Pos(), Guarded: guarded, Fatal: fatal})
	}
}

// inPanicArgs reports whether the visited node sits inside the argument
// list of a panic(...) call. A panicking simulator is no longer on any
// hot path — allocation and formatting while assembling the panic value
// are free — and hot-ness must not propagate through such call sites.
func inPanicArgs(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			continue
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	return false
}

// enclosingFuncDecl returns the innermost *declared* function on the
// stack, skipping function literals (whose edges attribute upward).
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// ReachOpts tunes a reachability traversal.
type ReachOpts struct {
	// SkipGuarded drops edges whose call site only runs with a tracer
	// attached (the hotalloc slow path).
	SkipGuarded bool

	// SkipFatal drops edges whose call site sits inside panic(...)
	// arguments (the run is already dying there).
	SkipFatal bool

	// Boundary stops the traversal at matching functions: a boundary
	// function is recorded as reached but its callees are not visited
	// through it.
	Boundary func(FuncKey) bool
}

// Reachable returns every function reachable from the roots (roots
// included, when declared in the graph), with, for each, one example
// caller on a shortest path from a root (roots map to themselves).
func (g *CallGraph) Reachable(roots []FuncKey, opts ReachOpts) map[FuncKey]FuncKey {
	seen := map[FuncKey]FuncKey{}
	queue := make([]FuncKey, 0, len(roots))
	for _, r := range roots {
		if _, ok := g.Nodes[r]; !ok {
			continue
		}
		if _, dup := seen[r]; dup {
			continue
		}
		seen[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if opts.Boundary != nil && opts.Boundary(cur) {
			continue
		}
		node := g.Nodes[cur]
		if node == nil {
			continue
		}
		for _, e := range node.Edges {
			if opts.SkipGuarded && e.Guarded {
				continue
			}
			if opts.SkipFatal && e.Fatal {
				continue
			}
			if _, ok := seen[e.To]; ok {
				continue
			}
			if _, declared := g.Nodes[e.To]; !declared {
				continue
			}
			seen[e.To] = cur
			queue = append(queue, e.To)
		}
	}
	return seen
}

// Path reconstructs a root→target call chain from a Reachable result,
// for diagnostics ("hot via RunWindow → Tick → fill").
func Path(reach map[FuncKey]FuncKey, target FuncKey) []FuncKey {
	var rev []FuncKey
	for cur := target; ; {
		rev = append(rev, cur)
		parent, ok := reach[cur]
		if !ok || parent == cur {
			break
		}
		cur = parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathString renders a call chain for a diagnostic message.
func PathString(path []FuncKey) string {
	parts := make([]string, len(path))
	for i, k := range path {
		parts[i] = k.String()
	}
	return strings.Join(parts, " → ")
}

// moduleShared caches per-run artifacts that several analyzers need, so
// one simlint invocation builds the call graph once.
type moduleShared struct {
	graph *CallGraph
}

// Graph returns the shared call graph over pkgs, building it on first
// use. ModulePass carries the cache; a nil shared (direct test
// invocation) builds fresh.
func (p *ModulePass) Graph() *CallGraph {
	if p.shared == nil {
		p.shared = &moduleShared{}
	}
	if p.shared.graph == nil {
		p.shared.graph = BuildCallGraph(p.allPackages())
	}
	return p.shared.graph
}

// allPackages returns the full module package list (unscoped), falling
// back to the scoped list when the runner did not record one.
func (p *ModulePass) allPackages() []*Package {
	if len(p.all) > 0 {
		return p.all
	}
	return p.Packages
}
