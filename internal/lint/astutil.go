package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// inspectStack walks every node of f, passing the ancestor stack
// (outermost first, not including n itself) alongside each node.
func inspectStack(f *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// exprKey renders an expression to a comparable string, ignoring
// parentheses (so `cur+1` and `(cur + 1)` compare equal).
func exprKey(e ast.Expr) string {
	return types.ExprString(unparen(e))
}

// enclosingFunc returns the innermost function declaration or literal on
// the stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcType returns the signature AST of a FuncDecl or FuncLit node.
func funcType(fn ast.Node) *ast.FuncType {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Type
	case *ast.FuncLit:
		return f.Type
	}
	return nil
}

// hasNowParam reports whether the function has a parameter named "now"
// whose declared type is spelled uint64.
func hasNowParam(fn ast.Node) bool {
	ft := funcType(fn)
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		id, ok := unparen(field.Type).(*ast.Ident)
		if !ok || id.Name != "uint64" {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "now" {
				return true
			}
		}
	}
	return false
}

// conjuncts splits a condition on && into its top-level conjuncts.
func conjuncts(cond ast.Expr) []ast.Expr {
	cond = unparen(cond)
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op == token.LAND {
		return append(conjuncts(be.X), conjuncts(be.Y)...)
	}
	return []ast.Expr{cond}
}

// disjuncts splits an || chain into its operands (a non-|| expression is
// its own single disjunct). When a condition is known false, every
// disjunct is individually false.
func disjuncts(cond ast.Expr) []ast.Expr {
	cond = unparen(cond)
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op == token.LOR {
		return append(disjuncts(be.X), disjuncts(be.Y)...)
	}
	return []ast.Expr{cond}
}

// isTerminal reports whether a statement unconditionally leaves the
// enclosing block (return, break, continue, goto, or panic).
func isTerminal(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		if n := len(st.List); n > 0 {
			return isTerminal(st.List[n-1])
		}
	}
	return false
}

// bodyTerminates reports whether the if body ends in a terminal
// statement.
func bodyTerminates(ifs *ast.IfStmt) bool {
	if ifs.Body == nil || len(ifs.Body.List) == 0 {
		return false
	}
	return isTerminal(ifs.Body.List[len(ifs.Body.List)-1])
}

// containsNode reports whether outer's subtree contains target.
func containsNode(outer ast.Node, target ast.Node) bool {
	if outer == nil {
		return false
	}
	found := false
	ast.Inspect(outer, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// pkgNameOf resolves the package a selector's qualifier identifies, or
// "" if the qualifier is not a package name.
func pkgNameOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// scopeUnder returns a Scope predicate matching packages whose
// module-relative path equals or sits below one of the prefixes.
func scopeUnder(prefixes ...string) func(string) bool {
	return func(rel string) bool {
		for _, p := range prefixes {
			if rel == p || strings.HasPrefix(rel, p+"/") {
				return true
			}
		}
		return false
	}
}
