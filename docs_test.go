package cmpsim_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
	// fs.Uint64Var(&v, "name", …), fs.Func("name", …),
	// cli.CountVar(fs, &v, "name", …) and the like.
	flagDef    = regexp.MustCompile(`\b(?:Bool|Int|Int64|Uint|Uint64|Float64|Duration|String|Func|BoolFunc|Count)(?:Var)?\((?:[\w.]+, )?(?:&[\w.]+, )?"([\w-]+)"`)
	makeTarget = regexp.MustCompile(`(?m)^([\w-]+):`)
	fenced     = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	inlineCode = regexp.MustCompile("`([^`]+)`")
	docFlag    = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)(?:=\S*)?$`)
	makeCall   = regexp.MustCompile(`(?:^|\s)make ([\w-]+)`)
	// goName matches a Go identifier or selector, optionally called.
	goName = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?$`)
	// fileName matches a code span that names a file, not Go.
	fileName = regexp.MustCompile(`\.(?:go|md|json|jsonl|txt|sh|mod|yml|trace|golden)$`)
)

// TestDocsNameLiveThings holds README.md, DESIGN.md and EXPERIMENTS.md
// to the tree they describe. In their code (inline spans and fenced
// blocks) every -flag is registered by some command under cmd/ (the
// shared ones in internal/cli) or by the benchmark, or is a go tool
// flag; every path under a top-level directory of the repository
// exists; and every `make x` names a Makefile target. An inline span
// that is a Go name (see goNames.resolve) names a declaration of either
// module, a metric of the benchmark or a standard-library selector.
func TestDocsNameLiveThings(t *testing.T) {
	names := loadGoNames(t)
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

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
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
			code := prose[loc[2]:loc[3]]
			check(code, prose, loc[2])
			if !names.resolve(code) {
				t.Errorf("%s:%d: `%s` names no Go declaration, benchmark metric or standard-library selector",
					doc, 1+strings.Count(prose[:loc[2]], "\n"), code)
			}
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

// goNames is what a Go name in the documents may refer to.
type goNames struct {
	pkgs    map[string]map[string]bool // package name → its top-level names
	members map[string]map[string]bool // type name → its fields and methods
	decls   map[string]bool            // every declared name, members included
	metrics map[string]bool            // string literals of the benchmark
	std     map[string]bool            // standard-library package names
}

// loadGoNames parses every .go file of both modules, tests included
// (testdata excepted), and lists the standard library's packages.
func loadGoNames(t *testing.T) *goNames {
	n := &goNames{
		pkgs:    map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		decls:   map[string]bool{},
		metrics: map[string]bool{},
		std:     map[string]bool{},
	}
	aliases := map[string]string{} // alias name → the type name it stands for
	member := func(typ, name string) {
		if n.members[typ] == nil {
			n.members[typ] = map[string]bool{}
		}
		n.members[typ][name] = true
		n.decls[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := n.pkgs[f.Name.Name]
		if pkg == nil {
			pkg = map[string]bool{}
			n.pkgs[f.Name.Name] = pkg
		}
		top := func(name string) { pkg[name], n.decls[name] = true, true }
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					top(d.Name.Name)
					continue
				}
				typ := d.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						top(sp.Name.Name)
						if sel, ok := sp.Type.(*ast.SelectorExpr); ok && sp.Assign.IsValid() {
							aliases[sp.Name.Name] = sel.Sel.Name
						}
						fields := &ast.FieldList{}
						switch ty := sp.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						for _, fld := range fields.List {
							for _, id := range fld.Names {
								member(sp.Name.Name, id.Name)
							}
							if len(fld.Names) == 0 { // embedded: promoted under its type's name
								if sel, ok := fld.Type.(*ast.SelectorExpr); ok {
									member(sp.Name.Name, sel.Sel.Name)
								} else if id, ok := fld.Type.(*ast.Ident); ok {
									member(sp.Name.Name, id.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							top(id.Name)
						}
					}
				}
			}
		}
		if strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			ast.Inspect(f, func(x ast.Node) bool {
				if lit, ok := x.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						n.metrics[s] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for alias, typ := range aliases {
		for name := range n.members[typ] {
			member(alias, name)
		}
	}
	src := filepath.Join(build.Default.GOROOT, "src")
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "cmd", "internal", "vendor", "testdata":
				return filepath.SkipDir
			}
			if path != src {
				n.std[d.Name()] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// resolve reports whether an inline code span is either no Go name or a
// live one. A span is a Go name when it is an identifier or selector,
// optionally ending in (), with an uppercase letter, a dot or the call.
// A selector is read left to right: a package of either module and one
// of its top-level names, or any declared name, then each further part
// a field or method of the type before it (of any type when the part
// before is not a type name). A benchmark metric or a selector on a
// standard-library package resolves as a whole.
func (n *goNames) resolve(code string) bool {
	if !goName.MatchString(code) || fileName.MatchString(code) {
		return true
	}
	name, called := strings.CutSuffix(code, "()")
	if !called && !strings.Contains(name, ".") && name == strings.ToLower(name) {
		return true
	}
	if n.metrics[name] {
		return true
	}
	parts := strings.Split(name, ".")
	i := 0
	if top, ok := n.pkgs[parts[0]]; ok && len(parts) > 1 {
		if !top[parts[1]] {
			return false
		}
		i = 1
	} else if !n.decls[parts[0]] {
		return len(parts) > 1 && n.std[parts[0]]
	}
	for ; i+1 < len(parts); i++ {
		ms, isType := n.members[parts[i]]
		if isType && !ms[parts[i+1]] || !isType && !n.decls[parts[i+1]] {
			return false
		}
	}
	return true
}
