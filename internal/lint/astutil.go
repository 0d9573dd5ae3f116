package lint

import (
	"go/ast"
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

// pkgNameOf resolves the package a selector's qualifier identifies, or
// "" if the qualifier is not a package name.
func pkgNameOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
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
