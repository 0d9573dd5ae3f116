package lint

import (
	"go/ast"
	"go/token"
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
// analyzer (RunModule); field identity is matched by (package path,
// type name, field name) strings since separately type-checked
// packages have distinct types.Object identities.
var StatregAnalyzer = &Analyzer{
	Name:      "statreg",
	Doc:       "every counter field of a *Stats struct must be read by a report/merge path",
	RunModule: runStatreg,
}

type fieldKey struct {
	pkgPath   string
	typeName  string
	fieldName string
}

type fieldDecl struct {
	pkg *Package
	pos token.Pos
}

func runStatreg(pass *ModulePass) error {
	decls := map[fieldKey]fieldDecl{}

	// Pass 1: collect counter fields of *Stats structs in internal/.
	for _, pkg := range pass.Packages {
		if !strings.HasPrefix(pkg.RelPath, "internal/") || pkg.RelPath == "internal/lint" {
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
					decls[fieldKey{pkg.Path, tn.Name(), f.Name()}] = fieldDecl{pkg: pkg, pos: f.Pos()}
				}
			}
		}
	}
	if len(decls) == 0 {
		return nil
	}

	// Pass 2: scan every package for reads.
	read := map[fieldKey]bool{}
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
				k, ok := fieldKeyOf(s)
				if !ok {
					return
				}
				if _, tracked := decls[k]; !tracked || read[k] {
					return
				}
				if isReadContext(sel, stack) {
					read[k] = true
				}
			})
		}
	}

	for k, d := range decls {
		if read[k] {
			continue
		}
		pass.Reportf(d.pkg, d.pos, "counter %s.%s.%s is incremented but never read by any report or merge path", shortPkg(k.pkgPath), k.typeName, k.fieldName)
	}
	return nil
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
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

// fieldKeyOf maps a field selection to its string identity, resolving
// the receiver through pointers and embedded fields to the named struct
// that declares the field.
func fieldKeyOf(s *types.Selection) (fieldKey, bool) {
	obj, ok := s.Obj().(*types.Var)
	if !ok || obj.Pkg() == nil {
		return fieldKey{}, false
	}
	t := s.Recv()
	// Follow the selection's index path through embedded structs so the
	// key names the struct that actually declares the field.
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		t = derefNamed(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return fieldKey{}, false
		}
		t = st.Field(i).Type()
	}
	t = derefNamed(t)
	named, ok := t.(*types.Named)
	if !ok {
		return fieldKey{}, false
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return fieldKey{}, false
	}
	return fieldKey{tn.Pkg().Path(), tn.Name(), obj.Name()}, true
}

func derefNamed(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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
