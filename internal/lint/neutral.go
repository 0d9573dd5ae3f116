package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NeutralAnalyzer proves the observability layers cannot perturb the
// simulation. The repo's contract since PR 1 is that attaching a
// tracer, sampler, profiler or checker never changes
// simulated cycles or statistics — enforced dynamically by the
// output-identity regression tests, but only for the attachments those
// tests think to exercise. This analyzer enforces the property's static
// shadow: inside the simulator packages, no *value that came out of*
// the observability surface (internal/obsv, internal/prof,
// internal/check) may flow into simulator state or steer simulator
// control flow.
//
// A "source" is a non-observability-typed value produced by the
// observability surface: the result of calling an obs-package function
// or method (obsv.Metrics.NextDue returning a cycle, a hypothetical
// tracer.Dropped() count), or a read of a non-obs-typed field of an
// obs-declared struct. Plumbing — passing obs-typed handles around,
// storing a *prof.Profile into the result struct, comparing an
// attachment against nil to gate instrumentation — is deliberately
// exempt: attachment *presence* may gate extra observation-only work
// (that is the hotalloc guard idiom), but observation *data* must never
// come back.
//
// A source is flagged when it reaches an if/for/switch condition, an
// assignment whose target is not itself observability-typed, a return
// from a function with a non-obs result, an index, or an argument to a
// non-obs call. One if-condition shape is exempt: a condition gating a
// body that only performs observation (every statement a call on an obs
// receiver or an assignment into obs state), the `if mets.Due(cyc) {
// mets.Record(...) }` sampler idiom — the steered code cannot perturb
// the simulation because it only observes.
//
// The one legitimate counter-example in the tree — the quiescence
// skipper bounding its jump by the sampler's next due cycle so interval
// samples land on schedule — carries a //simlint:allow neutral with the
// byte-identity argument; anything new must argue its case the same
// way.
var NeutralAnalyzer = &Analyzer{
	Name: "neutral",
	Doc:  "forbid dataflow from observability (obsv/prof/check) values into simulator state or control flow",
	Scope: scopeUnder(
		"internal/cache", "internal/coherence", "internal/core",
		"internal/cpu", "internal/memsys", "internal/interconnect",
		"internal/event",
	),
	Run: runNeutral,
}

// obsPackageSuffixes identify the observability surface.
var obsPackageSuffixes = []string{
	"internal/obsv", "internal/prof", "internal/check",
}

func isObsPkgPath(path string) bool {
	for _, s := range obsPackageSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// isObsType reports whether t is declared in an obs package (through
// pointers, slices and arrays). Obs-typed values are plumbing, not
// data.
func isObsType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Named:
			pkg := u.Obj().Pkg()
			return pkg != nil && isObsPkgPath(pkg.Path())
		default:
			return false
		}
	}
}

func runNeutral(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if src, desc := obsCallSource(info, n, stack); src {
					checkUse(pass, info, n, stack, desc)
				}
			case *ast.SelectorExpr:
				if src, desc := obsFieldSource(info, n); src && isReadContext(n, stack) {
					checkUse(pass, info, n, stack, desc)
				}
			case *ast.Ident:
				// Package-level vars of obs packages read from sim code.
				if v, ok := info.Uses[n].(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
					isObsPkgPath(v.Pkg().Path()) && v.Parent() == v.Pkg().Scope() && !isObsType(v.Type()) {
					checkUse(pass, info, n, stack, "observability package variable "+v.Name())
				}
			}
		})
	}
	return nil
}

// obsCallSource reports whether call produces observation data the
// simulator then consumes: the callee is declared in an obs package,
// returns at least one non-obs-typed result, and the result is used.
func obsCallSource(info *types.Info, call *ast.CallExpr, stack []ast.Node) (bool, string) {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return false, ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !isObsPkgPath(fn.Pkg().Path()) {
		return false, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false, ""
	}
	allObs := true
	for i := 0; i < sig.Results().Len(); i++ {
		if !isObsType(sig.Results().At(i).Type()) {
			allObs = false
		}
	}
	if allObs {
		return false, "" // handle plumbing (Snapshot → *prof.Profile, …)
	}
	if len(stack) > 0 {
		if _, discarded := stack[len(stack)-1].(*ast.ExprStmt); discarded {
			return false, ""
		}
	}
	return true, "result of " + shortPkg(fn.Pkg().Path()) + "." + fn.Name() + "()"
}

// obsFieldSource reports whether sel reads observation data out of an
// obs-declared struct (a non-obs-typed field).
func obsFieldSource(info *types.Info, sel *ast.SelectorExpr) (bool, string) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false, ""
	}
	recv := derefNamed(s.Recv())
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !isObsPkgPath(named.Obj().Pkg().Path()) {
		return false, ""
	}
	if isObsType(s.Obj().Type()) {
		return false, "" // obs-typed sub-object: plumbing
	}
	return true, "field " + named.Obj().Name() + "." + s.Obj().Name()
}

// checkUse climbs the ancestor stack from the source expression and
// reports consumption that lets observation data perturb simulation.
func checkUse(pass *Pass, info *types.Info, src ast.Expr, stack []ast.Node, desc string) {
	var node ast.Node = src
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.UnaryExpr, *ast.BinaryExpr, *ast.KeyValueExpr:
			node = p
		case *ast.SelectorExpr:
			// Qualified references (obsv.Dropped) and projections of a
			// source value both still carry the observation data.
			node = p
		case *ast.CallExpr:
			if p.Fun == node {
				return // the source expression itself being invoked
			}
			if isTypeConversion(info, p) {
				node = p // converted value: keep climbing
				continue
			}
			if isBuiltinCall(info, p) {
				// append/len/copy/… pass the data through rather than
				// consuming it; judge the builtin's own consumer instead
				// (append into an obs-owned slice is plumbing, len in a
				// loop bound is steering).
				node = p
				continue
			}
			if callFeedsObs(info, p) {
				return // feeding an observer is the approved direction
			}
			pass.Reportf(src.Pos(), "%s flows into a simulator call as an argument; observability data must not feed the simulation", desc)
			return
		case *ast.CompositeLit:
			tv, ok := info.Types[p]
			if ok && isObsType(tv.Type) {
				return // building an obs value (a Probe, an Event)
			}
			pass.Reportf(src.Pos(), "%s is stored into simulator composite %s", desc, types.ExprString(p.Type))
			return
		case *ast.IfStmt:
			if p.Cond != node {
				return
			}
			if ifBodyObservesOnly(info, p) {
				return
			}
			pass.Reportf(src.Pos(), "%s steers simulator control flow (if condition); observability must be output-neutral", desc)
			return
		case *ast.ForStmt:
			if p.Cond == node {
				pass.Reportf(src.Pos(), "%s steers simulator control flow (for condition)", desc)
			}
			return
		case *ast.SwitchStmt:
			pass.Reportf(src.Pos(), "%s steers simulator control flow (switch)", desc)
			return
		case *ast.CaseClause:
			pass.Reportf(src.Pos(), "%s steers simulator control flow (case value)", desc)
			return
		case *ast.IndexExpr:
			if p.Index == node {
				pass.Reportf(src.Pos(), "%s indexes simulator state", desc)
				return
			}
			node = p
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if isBlank(lhs) {
					continue
				}
				tv, ok := info.Types[lhs]
				if ok && isObsType(tv.Type) {
					continue
				}
				if obsOwnedLHS(info, lhs) {
					continue // storing into a field of an obs value: plumbing
				}
				pass.Reportf(src.Pos(), "%s is assigned into simulator state %s", desc, types.ExprString(lhs))
				return
			}
			return
		case *ast.ReturnStmt:
			fn := enclosingFunc(stack[:i])
			ft := funcType(fn)
			if ft != nil && ft.Results != nil {
				for _, r := range ft.Results.List {
					tv, ok := info.Types[r.Type]
					if ok && isObsType(tv.Type) {
						return
					}
				}
			}
			pass.Reportf(src.Pos(), "%s is returned from a simulator function", desc)
			return
		case *ast.RangeStmt:
			pass.Reportf(src.Pos(), "%s drives a simulator range loop", desc)
			return
		default:
			return
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// isTypeConversion reports whether call is a conversion T(x).
func isTypeConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isBuiltinCall reports whether call invokes a language builtin
// (append, len, copy, …).
func isBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// obsOwnedLHS reports whether the assignment target is (a projection
// of) an observability-owned value — e.g. p.PerCPUInsts where p is an
// obsv.Probe. Writing INTO obs state is the approved direction even
// when the field itself has a plain type.
func obsOwnedLHS(info *types.Info, e ast.Expr) bool {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			if tv, ok := info.Types[x.X]; ok && isObsType(tv.Type) {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// callFeedsObs reports whether the call's callee belongs to the
// observability surface (an obs-package function, or a method on an
// obs-typed receiver), so passing observation data to it is fine.
func callFeedsObs(info *types.Info, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok && fn.Pkg() != nil {
			return isObsPkgPath(fn.Pkg().Path())
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && isObsPkgPath(fn.Pkg().Path()) {
			return true
		}
		if tv, ok := info.Types[fun.X]; ok && isObsType(tv.Type) {
			return true
		}
	}
	return false
}

// ifBodyObservesOnly reports whether every statement in the if body
// only observes: calls on obs receivers / obs-package functions, or
// assignments whose every target is obs-typed. Such a body cannot
// perturb the simulation, so gating it on observability state is the
// approved sampler idiom.
func ifBodyObservesOnly(info *types.Info, ifs *ast.IfStmt) bool {
	if ifs.Else != nil {
		return false
	}
	if ifs.Body == nil || len(ifs.Body.List) == 0 {
		return false
	}
	for _, st := range ifs.Body.List {
		switch s := st.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !callFeedsObs(info, call) {
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if isBlank(lhs) {
					continue
				}
				tv, ok := info.Types[lhs]
				if !ok || !isObsType(tv.Type) {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}
