// Command simlint runs the simulator's invariant analyzers (package
// internal/lint) over every package of the module, from any directory
// inside it:
//
//	simlint         # analyze the module
//	simlint -list   # print the suite
//
// Findings print as path:line:col: [analyzer] message, paths relative
// to the working directory. Exit status:
//
//	0  clean (no findings survived suppression)
//	1  findings
//	2  load/usage error (bad flag, argument, type-check failure)
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
	listFlag := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q: simlint always analyzes the whole module", fs.Arg(0)))
	}
	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	pkgs, err := lint.Load("cmpsim/...")
	if err != nil {
		return fail(err)
	}
	diags, err := lint.RunAnalyzers(lint.Analyzers(), pkgs)
	if err != nil {
		return fail(err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	github := os.Getenv("GITHUB_ACTIONS") == "true"
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		if github {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=simlint %s::%s\n",
				file, d.Pos.Line, d.Pos.Column, d.Analyzer, escapeAnnotation(d.Message))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// escapeAnnotation encodes the characters the workflow-command parser
// treats specially.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "simlint:", err)
	return 2
}
