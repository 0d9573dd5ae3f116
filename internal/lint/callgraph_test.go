package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"cmpsim/internal/lint"
)

// writeFixturePkg materializes one package's source in a temp dir.
func writeFixturePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCallGraphCyclesAndPath proves the traversal terminates on mutual
// recursion and reconstructs a root→target chain through it.
func TestCallGraphCyclesAndPath(t *testing.T) {
	dir := writeFixturePkg(t, `package a

type Ring struct{}

func (r *Ring) Step(now uint64) { helper() }

func helper() { mutual1() }

func mutual1() { mutual2() }

func mutual2() { mutual1() }

func unreached() { helper() }
`)
	loader := lint.NewLoader()
	pkg, err := loader.Load(dir, "cg/a", "internal/cache")
	if err != nil {
		t.Fatal(err)
	}
	g := lint.BuildCallGraph([]*lint.Package{pkg})

	step := lint.FuncKey{Pkg: "cg/a", Recv: "Ring", Name: "Step"}
	reach := g.Reachable([]lint.FuncKey{step}, lint.ReachOpts{})
	for _, name := range []string{"helper", "mutual1", "mutual2"} {
		if _, ok := reach[lint.FuncKey{Pkg: "cg/a", Name: name}]; !ok {
			t.Errorf("%s not reached from Ring.Step", name)
		}
	}
	if _, ok := reach[lint.FuncKey{Pkg: "cg/a", Name: "unreached"}]; ok {
		t.Error("unreached function must not appear in the closure")
	}

	path := lint.Path(reach, lint.FuncKey{Pkg: "cg/a", Name: "mutual2"})
	got := lint.PathString(path)
	want := "a.Ring.Step → a.helper → a.mutual1 → a.mutual2"
	if got != want {
		t.Errorf("Path = %q, want %q", got, want)
	}
}

// TestCallGraphCrossPackageEdges loads two packages, the second
// importing the first through the loader's preload hook, and requires
// reachability to cross the boundary.
func TestCallGraphCrossPackageEdges(t *testing.T) {
	dirA := writeFixturePkg(t, `package a

type Ring struct{ n int }

func (r *Ring) Step(now uint64) { r.n++ }
`)
	dirB := writeFixturePkg(t, `package b

import "cg/a"

type Core struct{ r *a.Ring }

func (c *Core) Tick(now uint64) { c.r.Step(now) }
`)
	loader := lint.NewLoader()
	pkgA, err := loader.Load(dirA, "cg/a", "internal/cache")
	if err != nil {
		t.Fatal(err)
	}
	loader.Preload(pkgA)
	pkgB, err := loader.Load(dirB, "cg/b", "internal/core")
	if err != nil {
		t.Fatal(err)
	}
	g := lint.BuildCallGraph([]*lint.Package{pkgA, pkgB})

	tick := lint.FuncKey{Pkg: "cg/b", Recv: "Core", Name: "Tick"}
	reach := g.Reachable([]lint.FuncKey{tick}, lint.ReachOpts{})
	step := lint.FuncKey{Pkg: "cg/a", Recv: "Ring", Name: "Step"}
	if _, ok := reach[step]; !ok {
		t.Fatalf("cross-package callee %v not reached from %v", step, tick)
	}
}

// TestCallGraphInterfaceDispatch requires a call through an interface
// method to reach every module method matching the name and arity, and
// none with a different shape.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	dir := writeFixturePkg(t, `package a

type Sink interface{ Observe(x uint64) }

type impl struct{ n uint64 }

func (i *impl) Observe(x uint64) { i.n += x }

type other struct{}

// Observe with a different arity must not be a dispatch target.
func (o *other) Observe(x, y uint64) {}

func drive(s Sink, now uint64) { s.Observe(now) }
`)
	loader := lint.NewLoader()
	pkg, err := loader.Load(dir, "cg/a", "internal/cache")
	if err != nil {
		t.Fatal(err)
	}
	g := lint.BuildCallGraph([]*lint.Package{pkg})

	drive := lint.FuncKey{Pkg: "cg/a", Name: "drive"}
	reach := g.Reachable([]lint.FuncKey{drive}, lint.ReachOpts{})
	if _, ok := reach[lint.FuncKey{Pkg: "cg/a", Recv: "impl", Name: "Observe"}]; !ok {
		t.Error("interface dispatch missed the name+arity-matching implementation")
	}
	if _, ok := reach[lint.FuncKey{Pkg: "cg/a", Recv: "other", Name: "Observe"}]; ok {
		t.Error("interface dispatch matched a method with different arity")
	}
}

// TestReachableBoundary requires boundary functions to be reached but
// not traversed through.
func TestReachableBoundary(t *testing.T) {
	dir := writeFixturePkg(t, `package a

func root(now uint64) { arbiter() }

func arbiter() { protected() }

func protected() {}
`)
	loader := lint.NewLoader()
	pkg, err := loader.Load(dir, "cg/a", "internal/cache")
	if err != nil {
		t.Fatal(err)
	}
	g := lint.BuildCallGraph([]*lint.Package{pkg})

	root := lint.FuncKey{Pkg: "cg/a", Name: "root"}
	arb := lint.FuncKey{Pkg: "cg/a", Name: "arbiter"}
	reach := g.Reachable([]lint.FuncKey{root}, lint.ReachOpts{
		Boundary: func(k lint.FuncKey) bool { return k == arb },
	})
	if _, ok := reach[arb]; !ok {
		t.Error("boundary function itself must be reached")
	}
	if _, ok := reach[lint.FuncKey{Pkg: "cg/a", Name: "protected"}]; ok {
		t.Error("traversal crossed a boundary function")
	}
}

// TestReachableSkipsFatalEdges requires panic-argument call sites not
// to conduct reachability when SkipFatal is set (a dying
// simulator is on no hot path).
func TestReachableSkipsFatalEdges(t *testing.T) {
	dir := writeFixturePkg(t, `package a

func root(now uint64) {
	if now == 0 {
		panic(render())
	}
}

func render() string { return "boom" }
`)
	loader := lint.NewLoader()
	pkg, err := loader.Load(dir, "cg/a", "internal/cache")
	if err != nil {
		t.Fatal(err)
	}
	g := lint.BuildCallGraph([]*lint.Package{pkg})

	root := lint.FuncKey{Pkg: "cg/a", Name: "root"}
	render := lint.FuncKey{Pkg: "cg/a", Name: "render"}
	if reach := g.Reachable([]lint.FuncKey{root}, lint.ReachOpts{SkipFatal: true}); len(reach) != 1 {
		t.Errorf("SkipFatal closure = %v, want only the root", reach)
	}
	if reach := g.Reachable([]lint.FuncKey{root}, lint.ReachOpts{}); len(reach) != 2 {
		t.Errorf("default closure = %v, want root plus %v", reach, render)
	}
}

// TestFuncLitEdgesAttributeUpward pins the closure convention: calls
// made inside a function literal belong to the enclosing declaration.
func TestFuncLitEdgesAttributeUpward(t *testing.T) {
	dir := writeFixturePkg(t, `package a

func root(now uint64) {
	f := func() { callee() }
	f()
}

func callee() {}
`)
	loader := lint.NewLoader()
	pkg, err := loader.Load(dir, "cg/a", "internal/cache")
	if err != nil {
		t.Fatal(err)
	}
	g := lint.BuildCallGraph([]*lint.Package{pkg})
	reach := g.Reachable([]lint.FuncKey{{Pkg: "cg/a", Name: "root"}}, lint.ReachOpts{})
	if _, ok := reach[lint.FuncKey{Pkg: "cg/a", Name: "callee"}]; !ok {
		t.Error("call inside a FuncLit did not attribute to the enclosing declaration")
	}
}
