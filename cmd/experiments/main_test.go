package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
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

// TestSweepMatchesLedger: `experiments -sweep SharedL1Banks -quick`
// prints for each point the cycles testdata/ledger.json pins for its
// quick row, so the printed table and the pinned rows cannot drift
// apart.
func TestSweepMatchesLedger(t *testing.T) {
	data, err := os.ReadFile("../../testdata/ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Row    string
		Cycles uint64
	}
	var ledger struct{ Rows []row }
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	sweeps := benchfig.Sweeps()
	s := sweeps[slices.IndexFunc(sweeps, func(s benchfig.Sweep) bool { return s.Name == "SharedL1Banks" })]
	got := campaign(t, "-sweep", s.Name, "-quick")
	for _, v := range s.Values {
		name := fmt.Sprintf("quick-%s/%s/%s/mipsy", s.Point(v), s.App, s.Arch)
		i := slices.IndexFunc(ledger.Rows, func(r row) bool { return r.Row == name })
		if i < 0 {
			t.Fatalf("ledger has no row %s", name)
		}
		if want := fmt.Sprintf("  %s=%d: cycles=%-10d ", s.Knob, v, ledger.Rows[i].Cycles); !strings.Contains(got, want) {
			t.Errorf("row %s: output lacks %q:\n%s", name, want, got)
		}
	}
}
