package lint

import (
	"go/ast"
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
//     key could differ, and every test passes while the variable is
//     unset. Test files are not loaded, so golden tests may still read
//     their files.
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
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, goroutines, map-order iteration and os/flag/syscall imports in simulator state machines",
	Scope: scopeUnder(
		"internal/cache", "internal/coherence", "internal/core",
		"internal/cpu", "internal/memsys", "internal/interconnect",
		"internal/event", "internal/mem",
	),
	Run: runDeterminism,
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
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); configImports[path] {
				pass.Reportf(imp.Pos(), "simulator code imports %s; configuration must come through memsys.Config, which the result cache fingerprints", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
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
