package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"cmpsim/internal/benchfig"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden")

const goldenPath = "testdata/quick.golden"

// wallTime matches the one line of the output that is not deterministic.
var wallTime = regexp.MustCompile(`(?m)^total wall time: .*\n`)

// campaign runs experiments in process with args and returns its
// stdout without the wall-time line.
func campaign(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return wallTime.ReplaceAllString(out.String(), "")
}

// TestQuickGolden pins every table and figure `experiments -quick`
// prints, and holds `-quick -skip-mxs` to the same output cut before
// the MXS block. -update rewrites the golden file.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick campaign twice")
	}
	got := campaign(t, "-quick")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("experiments -quick differs from %s (go test -run TestQuickGolden ./cmd/experiments -update rewrites it):\n%s", goldenPath, got)
	}
	cut := strings.Index(string(want), "=== "+benchfig.MXSTitle)
	if cut < 0 {
		t.Fatalf("%s has no MXS block", goldenPath)
	}
	if got := campaign(t, "-quick", "-skip-mxs"); got != string(want[:cut]) {
		t.Errorf("experiments -quick -skip-mxs is not %s cut before the MXS block:\n%s", goldenPath, got)
	}
}
