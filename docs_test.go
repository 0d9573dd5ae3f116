package cmpsim_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goToolFlags are the flags the docs pass to the go tool itself rather
// than to a command of this repository.
var goToolFlags = map[string]bool{
	"race": true, "run": true, "bench": true, "benchmem": true, "update": true, "count": true,
}

var (
	// flagDef matches a flag registration: flag.String("name", …),
	// fs.Uint64Var(&v, "name", …), fs.Func("name", …) and the like.
	flagDef    = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|Float64|Duration|String|Func|BoolFunc)(?:Var)?\((?:&[\w.]+, )?"([\w-]+)"`)
	makeTarget = regexp.MustCompile(`(?m)^([\w-]+):`)
	fenced     = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	inlineCode = regexp.MustCompile("`([^`]+)`")
	docFlag    = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)(?:=\S*)?$`)
	makeCall   = regexp.MustCompile(`(?:^|\s)make ([\w-]+)`)
)

// TestDocsNameLiveThings holds README.md and DESIGN.md to the tree they
// describe. In their code (inline spans and fenced blocks) every -flag
// is registered by some command under cmd/ (the shared ones in
// internal/cli) or by the benchmark, or is a go tool flag; every path
// under a top-level directory of the repository exists; and every
// `make x` names a Makefile target.
func TestDocsNameLiveThings(t *testing.T) {
	flags := map[string]bool{"h": true} // the flag package's own help flag
	for _, glob := range []string{"cmd/*/*.go", "internal/cli/*.go", "benchmark/*.go"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			for _, m := range flagDef.FindAllStringSubmatch(readFile(t, f), -1) {
				flags[m[1]] = true
			}
		}
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(readFile(t, "Makefile"), -1) {
		targets[m[1]] = true
	}
	topDirs := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			topDirs[e.Name()] = true
		}
	}

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src := readFile(t, doc)
		// check tests one piece of code found at offset at of text, a
		// copy of the document with the same line breaks.
		check := func(code, text string, at int) {
			where := func() string { return fmt.Sprintf("%s:%d", doc, 1+strings.Count(text[:at], "\n")) }
			for _, m := range makeCall.FindAllStringSubmatch(code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: `make %s` names no Makefile target", where(), m[1])
				}
			}
			for _, tok := range strings.Fields(code) {
				tok = strings.TrimRight(tok, ".,;:'\"")
				if m := docFlag.FindStringSubmatch(tok); m != nil {
					if !flags[m[1]] && !goToolFlags[m[1]] {
						t.Errorf("%s: %s is no flag of a command or the benchmark", where(), tok)
					}
					continue
				}
				path := strings.TrimSuffix(strings.TrimPrefix(tok, "./"), "/...")
				first, _, isPath := strings.Cut(path, "/")
				if !isPath || !topDirs[first] || strings.ContainsAny(path, "*{<") {
					continue
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: %s does not exist", where(), tok)
				}
			}
		}
		for _, loc := range fenced.FindAllStringIndex(src, -1) {
			check(src[loc[0]:loc[1]], src, loc[0])
		}
		prose := fenced.ReplaceAllStringFunc(src, func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for _, loc := range inlineCode.FindAllStringSubmatchIndex(prose, -1) {
			check(prose[loc[2]:loc[3]], prose, loc[2])
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
