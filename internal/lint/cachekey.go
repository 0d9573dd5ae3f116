package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CachekeyAnalyzer statically verifies the runner's result-cache
// contract. The on-disk cache (internal/runner) keys every simulation
// by a reflection fingerprint of memsys.Config: scalar knobs are
// rendered into the key, and the runtime attachments (tracer, sampler,
// checker, profiler, SharedData classifier) are excluded but required
// nil by Cacheable before a job may be memoized. The contract breaks
// silently in two ways, and each way serves stale figures as current:
//
//  1. A new Config field of func/pointer/interface kind is skipped by
//     the fingerprint. Unless Cacheable requires it nil (or it is
//     proven output-neutral), two configs differing only in that field
//     share a cache key. The analyzer cross-references every
//     non-scalar Config field against the nil-checks in the runner's
//     Cacheable function; a field that is neither checked there nor
//     annotated //simlint:cachekey-exempt (the annotation asserts
//     output-neutrality, which the neutral analyzer then enforces) is
//     flagged at its declaration. Map/chan/unsafe fields are always
//     flagged: the fingerprint cannot render them canonically.
//
//  2. Simulator code reads configuration from somewhere the
//     fingerprint cannot see: an environment variable, a file, the
//     flag package, or a mutable package-level variable. Any such read
//     makes two identically-fingerprinted runs differ. The analyzer
//     bans env/file/flag reads inside the simulator packages outright,
//     and enforces the "no mutable package-level state" rule the
//     determinism refactor established: a package-level var in the
//     simulator packages may only be assigned at its declaration or
//     from an init function (the link-time plugin pattern); any other
//     store is flagged.
//
// Escape hatches: //simlint:cachekey-exempt on a Config field (with
// the neutrality argument in the comment), //simlint:allow cachekey on
// a flagged statement.
var CachekeyAnalyzer = &Analyzer{
	Name:      "cachekey",
	Doc:       "every memsys.Config knob must reach the cache fingerprint (or be excluded-and-nil-checked); no config reads outside Config in simulator code",
	Scope:     scopeUnder("internal/core", "internal/cpu", "internal/cache", "internal/memsys", "internal/coherence", "internal/interconnect", "internal/event", "internal/mem"),
	RunModule: runCachekey,
}

// fingerprintSkippedKinds mirrors runner.Fingerprint's switch: these
// kinds are silently omitted from the cache key and must therefore be
// on the exclusion list.
func fingerprintSkipped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Signature, *types.Pointer, *types.Interface:
		return true
	}
	return false
}

// fingerprintUnrenderable are kinds the fingerprint would render
// nondeterministically or uselessly; they may not appear in Config at
// all.
func fingerprintUnrenderable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Map, *types.Chan:
		return true
	}
	return false
}

func runCachekey(pass *ModulePass) error {
	// Part 1: the Config-field audit. Find memsys.Config and the
	// runner's Cacheable nil-check list in the full module (both may be
	// absent in fixture runs — each check simply has nothing to do).
	var memsysPkg *Package
	nilChecked := map[string]bool{}
	for _, pkg := range pass.allPackages() {
		switch {
		case pkg.RelPath == "internal/memsys":
			memsysPkg = pkg
		case pkg.RelPath == "internal/runner":
			collectCacheableNilChecks(pkg, nilChecked)
		}
	}
	// Fixture hook: a fixture package posing as internal/memsys is in
	// pass.Packages but may not be in a full module load.
	if memsysPkg == nil {
		for _, pkg := range pass.Packages {
			if pkg.RelPath == "internal/memsys" {
				memsysPkg = pkg
				break
			}
		}
	}
	if memsysPkg != nil {
		auditConfig(pass, memsysPkg, nilChecked)
	}

	// Part 2: out-of-band config sources in simulator code.
	for _, pkg := range pass.Packages {
		checkConfigSources(pass, pkg)
	}
	return nil
}

// auditConfig checks every field of memsys.Config against the
// fingerprint contract.
func auditConfig(pass *ModulePass, pkg *Package, nilChecked map[string]bool) {
	tn, ok := pkg.Types.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	exempt := configExemptFields(pkg)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch {
		case fingerprintUnrenderable(f.Type()):
			pass.Reportf(pkg, f.Pos(),
				"Config.%s has kind %s, which the cache fingerprint cannot render canonically; restructure the knob as scalars",
				f.Name(), f.Type().Underlying().String())
		case fingerprintSkipped(f.Type()):
			if nilChecked[f.Name()] || exempt[f.Name()] {
				continue
			}
			pass.Reportf(pkg, f.Pos(),
				"Config.%s is skipped by the cache fingerprint but is neither required nil by runner.Cacheable nor annotated //simlint:cachekey-exempt; two configs differing only here would share a cache key and serve stale figures",
				f.Name())
		}
	}
}

// configExemptFields collects //simlint:cachekey-exempt annotations on
// Config field declarations (doc comment or trailing comment).
func configExemptFields(pkg *Package) map[string]bool {
	exempt := map[string]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Config" {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if hasDirective(fld.Doc, "simlint:cachekey-exempt") || hasDirective(fld.Comment, "simlint:cachekey-exempt") {
					for _, name := range fld.Names {
						exempt[name.Name] = true
					}
				}
			}
			return false
		})
	}
	return exempt
}

// collectCacheableNilChecks records which Cfg fields the runner's
// Cacheable function compares against nil (`job.Cfg.X == nil`).
func collectCacheableNilChecks(pkg *Package, out map[string]bool) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Cacheable" || fd.Recv != nil {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || be.Op != token.EQL {
					return true
				}
				var sel *ast.SelectorExpr
				if isNilIdent(be.Y) {
					sel, _ = unparen(be.X).(*ast.SelectorExpr)
				} else if isNilIdent(be.X) {
					sel, _ = unparen(be.Y).(*ast.SelectorExpr)
				}
				if sel == nil {
					return true
				}
				if qual, ok := unparen(sel.X).(*ast.SelectorExpr); ok && qual.Sel.Name == "Cfg" {
					out[sel.Sel.Name] = true
				}
				return true
			})
		}
	}
}

// configSourceFuncs are the out-of-band configuration reads banned in
// simulator code, keyed by package path then function name. An empty
// name set bans the whole package.
var configSourceFuncs = map[string]map[string]bool{
	"os": {
		"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
		"ReadFile": true, "Open": true, "OpenFile": true, "ReadDir": true,
		"UserHomeDir": true, "UserConfigDir": true, "Getwd": true,
	},
	"flag": {}, // any use of the flag package
}

func checkConfigSources(pass *ModulePass, pkg *Package) {
	info := pkg.Info

	// Package-level vars assigned outside init: mutable global state,
	// invisible to the fingerprint (and to the determinism contract).
	globals := map[types.Object]bool{}
	for _, name := range pkg.Types.Scope().Names() {
		if v, ok := pkg.Types.Scope().Lookup(name).(*types.Var); ok {
			globals[v] = true
		}
	}

	for _, f := range pkg.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkgPath := pkgNameOf(info, n)
				if pkgPath == "" {
					return
				}
				names, banned := configSourceFuncs[pkgPath]
				if !banned {
					return
				}
				if len(names) == 0 || names[n.Sel.Name] {
					pass.Reportf(pkg, n.Pos(),
						"%s.%s reads configuration outside memsys.Config; the result cache cannot fingerprint it, so cached figures would go stale silently",
						pkgPath, n.Sel.Name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					id, ok := unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Uses[id]
					if obj == nil || !globals[obj] {
						continue
					}
					if inInitFunc(stack) {
						continue // the link-time plugin pattern (core/mxs.go)
					}
					pass.Reportf(pkg, id.Pos(),
						"package-level var %s is mutated outside init; simulator state must live on per-run structs or it aliases across cached runs",
						id.Name)
				}
			}
		})
	}
}

// inInitFunc reports whether the stack is inside a func init() or a
// package-level var initializer.
func inInitFunc(stack []ast.Node) bool {
	fd := enclosingFuncDecl(stack)
	return fd != nil && fd.Recv == nil && fd.Name.Name == "init"
}
