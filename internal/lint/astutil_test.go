package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestScopeUnder(t *testing.T) {
	scope := scopeUnder("internal/cache", "internal/core")
	for _, rel := range []string{"internal/cache", "internal/cache/lru", "internal/core"} {
		if !scope(rel) {
			t.Errorf("scope(%q) = false, want true", rel)
		}
	}
	for _, rel := range []string{"internal/cachex", "internal", "cmd/simlint", ""} {
		if scope(rel) {
			t.Errorf("scope(%q) = true, want false", rel)
		}
	}
}

func TestInspectStackOrder(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "t.go",
		"package p\nfunc f() { if true { g() } }", 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawCall bool
	inspectStack(f, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sawCall = true
		// Outermost first, excluding the node itself.
		if len(stack) == 0 {
			t.Fatal("empty stack at a nested call")
		}
		if _, ok := stack[0].(*ast.File); !ok {
			t.Errorf("stack[0] = %T, want *ast.File", stack[0])
		}
		if stack[len(stack)-1] == call {
			t.Error("stack includes the visited node itself")
		}
	})
	if !sawCall {
		t.Fatal("inspectStack never visited the call")
	}
}
