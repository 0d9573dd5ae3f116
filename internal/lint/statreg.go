package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// StatregAnalyzer closes the loop between counting and reporting. The
// simulator accumulates dozens of counters in *Stats structs (cache
// hits, snoop actions, resource waits); a counter that is incremented
// but never read by any report or merge path is a silent hole in the
// paper's figures — the event happened, was paid for, and vanished.
//
// The analyzer collects every numeric field (including fixed arrays of
// numerics) of every struct type whose name ends in "Stats" defined
// under internal/, then scans the whole module for reads of each field.
// A selector counts as a read unless it is the target of an assignment
// (including compound += accumulation — incrementing is not reporting)
// or an inc/dec statement. Fields with no read anywhere are reported at
// their declaration.
//
// Because it needs the whole module at once, statreg is a module-wide
// analyzer (RunModule). Load type-checks each package once, so a field
// read anywhere in the module selects the very *types.Var its struct
// declares.
var StatregAnalyzer = &Analyzer{
	Name:      "statreg",
	Doc:       "every counter field of a *Stats struct must be read by a report/merge path",
	RunModule: runStatreg,
}

type fieldDecl struct {
	pkg      *Package
	typeName string
}

func runStatreg(pass *ModulePass) error {
	decls := map[*types.Var]fieldDecl{}

	// Pass 1: collect counter fields of *Stats structs in internal/.
	for _, pkg := range pass.Packages {
		if !strings.HasPrefix(pkg.RelPath, "internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !strings.HasSuffix(tn.Name(), "Stats") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); isCounterType(f.Type()) {
					decls[f] = fieldDecl{pkg: pkg, typeName: tn.Name()}
				}
			}
		}
	}
	if len(decls) == 0 {
		return nil
	}

	// Pass 2: scan every package for reads.
	read := map[*types.Var]bool{}
	for _, pkg := range pass.Packages {
		info := pkg.Info
		for _, f := range pkg.Files {
			inspectStack(f, func(n ast.Node, stack []ast.Node) {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return
				}
				s, ok := info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return
				}
				v := s.Obj().(*types.Var)
				if _, tracked := decls[v]; tracked && !read[v] && isReadContext(sel, stack) {
					read[v] = true
				}
			})
		}
	}

	for v, d := range decls {
		if !read[v] {
			pass.Reportf(d.pkg, v.Pos(), "counter %s.%s.%s is incremented but never read by any report or merge path", v.Pkg().Name(), d.typeName, v.Name())
		}
	}
	return nil
}

// isCounterType matches the numeric shapes used for counters: integer
// and float basics, and fixed arrays of them (per-level breakdowns).
func isCounterType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsNumeric != 0
	case *types.Array:
		return isCounterType(u.Elem())
	}
	return false
}

// isReadContext reports whether the selector occurrence consumes the
// field's value, as opposed to storing into it. Climbing through index
// expressions and parens, the write contexts are: any assignment target
// (plain, := or compound — accumulation is not reporting) and inc/dec.
func isReadContext(sel *ast.SelectorExpr, stack []ast.Node) bool {
	var node ast.Node = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			node = p
		case *ast.IndexExpr:
			if p.X != node {
				return true // selector is the index, not the target
			}
			node = p
		case *ast.SelectorExpr:
			// x.Stats.Field — keep climbing only if we are the qualifier.
			if p.X == node {
				return true // outer selector reads through us
			}
			node = p
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == node {
					return false
				}
			}
			return true
		case *ast.IncDecStmt:
			return p.X != node
		default:
			return true
		}
	}
	return true
}
