package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// DeterminismAnalyzer enforces that the simulator's state machines are
// bit-for-bit reproducible: two runs with the same seed must produce
// identical cycle counts and statistics. Inside the simulator packages
// it forbids
//
//   - wall-clock reads (time.Now and friends) — simulated time is the
//     only clock;
//   - the math/rand global source — randomness must flow from an
//     explicitly seeded *rand.Rand so a seed pins the run;
//   - goroutine spawns — the event loop is single-threaded by design
//     and scheduler interleaving would leak into results;
//   - ranging over a map — Go randomizes map iteration order, so any
//     map-order-dependent side effect (ordering of emitted events,
//     float accumulation order, tie-breaking) varies run to run;
//   - importing os, flag or syscall — an environment variable, file or
//     flag read here is configuration outside memsys.Config, which the
//     runner's result cache fingerprints, so two runs with one cache
//     key could differ. Test files are not loaded, so golden tests may
//     still read their files;
//   - a float product feeding + or - — the compiler may fuse the pair
//     into one multiply-add on some hosts, so write float64(x*y). This
//     rule alone also applies outside the simulator packages (below).
//
// Map iteration whose effects are provably order-independent (e.g. a
// deletion-only sweep) is suppressed with //simlint:allow determinism.
//
// The goroutine ban is deliberately scoped to the simulation core.
// One level up, internal/runner's worker pool and the cmd/ drivers
// spawn goroutines on purpose: distinct runs share no mutable state,
// so run-level parallelism is sound precisely because in-run
// parallelism is banned here. The scope list below is that boundary —
// internal/runner, internal/cli and cmd/* are intentionally absent, and
// TestDeterminismScopeExcludesDriverPool pins it.
//
// The float-product rule alone is module-wide (Wide): a fused product
// moves results wherever host floats seed or mirror guest floating
// point, as in the workloads' reference computations, stats and obsv.
// Only the benchmark module is left out, because its floats are host
// timings.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, goroutines, map-order iteration and os/flag/syscall imports in simulator state machines, and fusable float products anywhere",
	Scope: scopeUnder(
		"internal/cache", "internal/coherence", "internal/core",
		"internal/cpu", "internal/memsys", "internal/interconnect",
		"internal/event", "internal/mem",
	),
	Wide: func(rel string) bool { return !scopeUnder("benchmark")(rel) },
	Run:  runDeterminism,
}

// wallClockFuncs are the time-package functions that observe or depend
// on the host clock. Pure types and constants (time.Duration etc.) stay
// legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// configImports are the packages through which simulator code could
// read configuration the result cache does not fingerprint.
var configImports = map[string]bool{"os": true, "flag": true, "syscall": true}

// randConstructors are the math/rand names that do NOT touch the global
// source: constructing an explicitly seeded generator is the approved
// pattern.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) error {
	info := pass.Pkg.Info
	inCore := pass.Analyzer.Scope(pass.Pkg.RelPath) // else only the float-product rule applies
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); inCore && configImports[path] {
				pass.Reportf(imp.Pos(), "simulator code imports %s; configuration must come through memsys.Config, which the result cache fingerprints", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			reportFusable(pass, n)
			if !inCore {
				return true
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned inside simulator code; the event loop must stay single-threaded")
			case *ast.SelectorExpr:
				switch pkgNameOf(info, n) {
				case "time":
					if wallClockFuncs[n.Sel.Name] {
						pass.Reportf(n.Pos(), "time.%s reads the wall clock; simulated cycles are the only clock", n.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					obj := info.Uses[n.Sel]
					if fn, ok := obj.(*types.Func); ok && !randConstructors[fn.Name()] {
						sig := fn.Type().(*types.Signature)
						if sig.Recv() == nil { // package-level func ⇒ global source
							pass.Reportf(n.Pos(), "rand.%s uses the process-global random source; seed an explicit *rand.Rand instead", fn.Name())
						}
					}
				}
			case *ast.RangeStmt:
				tv, ok := info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "ranging over map %s iterates in nondeterministic order; sort keys or restructure", types.ExprString(n.X))
				}
			}
			return true
		})
	}
	return nil
}

// reportFusable flags each non-constant floating-point product that is
// an operand of n, a + or -, or the right side of n, a += or -=. Go lets
// a compiler fuse such a pair into one multiply-add, rounding once
// instead of twice, and the arm64, ppc64le and riscv64 compilers do, so
// the result would depend on the host. An explicit conversion of the
// product rounds it and keeps the pair apart.
func reportFusable(pass *Pass, n ast.Node) {
	switch n := n.(type) {
	case *ast.BinaryExpr:
		if n.Op == token.ADD || n.Op == token.SUB {
			reportProduct(pass, n.X)
			reportProduct(pass, n.Y)
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
			reportProduct(pass, n.Rhs[0])
		}
	}
}

func reportProduct(pass *Pass, x ast.Expr) {
	x = ast.Unparen(x)
	mul, ok := x.(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return
	}
	tv, ok := pass.Pkg.Info.Types[mul]
	if !ok || tv.Value != nil {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
		pass.Reportf(mul.Pos(), "float product %s feeds + or - and may be fused into one multiply-add on some hosts; write %s(%s)",
			types.ExprString(mul), tv.Type, types.ExprString(mul))
	}
}
