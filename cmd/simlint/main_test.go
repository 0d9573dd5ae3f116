package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdirT moves the process into dir for the test's duration. runWith
// lists the module of the working directory, so each case runs inside
// its own temp module.
func chdirT(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// writeModule materializes a one-package module under a temp root and
// returns the root. The module is named cmpsim, the module simlint
// lists.
func writeModule(t *testing.T, relPath, src string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module cmpsim\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, filepath.FromSlash(relPath))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestExitCodeUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if got := runWith([]string{"internal/memsys"}, &out); got != 2 {
		t.Errorf("package argument: exit %d, want 2", got)
	}
	if got := runWith([]string{"-no-such-flag"}, &out); got != 2 {
		t.Errorf("unknown flag: exit %d, want 2", got)
	}
}

func TestExitCodeList(t *testing.T) {
	var out bytes.Buffer
	if got := runWith([]string{"-list"}, &out); got != 0 {
		t.Fatalf("-list: exit %d, want 0", got)
	}
	for _, name := range []string{"determinism", "statreg"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q", name)
		}
	}
}

func TestExitCodeFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a module")
	}
	// time.Now() inside simulator scope is a determinism finding.
	root := writeModule(t, "internal/cache", `package cache

import "time"

func Tick(now uint64) int64 { return time.Now().UnixNano() }
`)
	chdirT(t, root)
	var out bytes.Buffer
	if got := runWith(nil, &out); got != 1 {
		t.Fatalf("module with violation: exit %d, want 1\noutput:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "[determinism]") {
		t.Errorf("output missing the determinism finding:\n%s", out.String())
	}
}

func TestExitCodeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a module")
	}
	root := writeModule(t, "internal/cache", `package cache

func Tick(now uint64) uint64 { return now + 1 }
`)
	chdirT(t, root)
	var out bytes.Buffer
	if got := runWith(nil, &out); got != 0 {
		t.Fatalf("clean module: exit %d, want 0\noutput:\n%s", got, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}
