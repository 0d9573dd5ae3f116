// Command simlint runs the simulator's invariant analyzers (package
// internal/lint) over the module:
//
//	simlint                          # analyze the whole module
//	simlint ./...                    # same
//	simlint internal/memsys          # narrow the *output* to packages
//	simlint -analyzers neutral,statreg
//	simlint -list                    # print the suite
//
// Findings print as path:line:col: [analyzer] message, paths relative
// to the module root. Exit status:
//
//	0  clean (no findings survived suppression and filters)
//	1  findings
//	2  load/usage error (bad flag, unknown analyzer, type-check failure)
//
// Suppress an individual finding with a //simlint:allow <name> comment
// on the offending line or the line above. Under GITHUB_ACTIONS=true
// each finding is also printed as a ::error workflow annotation, so it
// attaches to the PR diff.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cmpsim/internal/lint"
)

func main() {
	os.Exit(runWith(os.Args[1:], os.Stdout))
}

// runWith is the whole CLI behind an explicit flag set and output
// stream, so the exit-code contract (0 clean / 1 findings / 2 error)
// is testable in-process.
func runWith(argv []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	var (
		listFlag      = fs.Bool("list", false, "list the analyzers and exit")
		analyzersFlag = fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(*analyzersFlag)
	if err != nil {
		return fail(err)
	}

	if *listFlag {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return fail(err)
	}
	// The source importer resolves module-internal imports relative to
	// the working directory's module; run from the root so any package
	// argument works.
	if err := os.Chdir(root); err != nil {
		return fail(err)
	}

	loader := lint.NewLoader()
	pkgs, err := loader.LoadModule(root)
	if err != nil {
		return fail(err)
	}

	diags, err := lint.RunAnalyzers(analyzers, pkgs)
	if err != nil {
		return fail(err)
	}

	// Positional args narrow the analysis to matching packages; "./..."
	// and the empty list mean everything. Module-wide analyzers still
	// see the whole module, so narrowing only filters the output.
	filters := packageFilters(fs.Args())
	github := os.Getenv("GITHUB_ACTIONS") == "true"
	findings := 0
	for _, d := range diags {
		if !filters.match(root, d.Pos.Filename) {
			continue
		}
		findings++
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		if github {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=simlint %s::%s\n",
				file, d.Pos.Line, d.Pos.Column, d.Analyzer, escapeAnnotation(d.Message))
		}
	}
	if findings > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves -analyzers against the suite, preserving
// suite order; an unknown name is a usage error (exit 2).
func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if names == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		return nil, fmt.Errorf("unknown analyzer(s) %s (see simlint -list)", strings.Join(unknown, ", "))
	}
	return out, nil
}

// escapeAnnotation encodes the characters the workflow-command parser
// treats specially.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

type filterList []string

func packageFilters(args []string) filterList {
	var fl filterList
	for _, a := range args {
		a = strings.TrimPrefix(a, "./")
		a = strings.TrimSuffix(a, "/...")
		a = strings.Trim(a, "/")
		if a == "." || a == "" {
			return nil // whole module
		}
		fl = append(fl, a)
	}
	return fl
}

func (fl filterList) match(root, file string) bool {
	if len(fl) == 0 {
		return true
	}
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return true
	}
	rel = filepath.ToSlash(rel)
	for _, f := range fl {
		if strings.HasPrefix(rel, f+"/") || filepath.Dir(rel) == f {
			return true
		}
	}
	return false
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "simlint:", err)
	return 2
}
