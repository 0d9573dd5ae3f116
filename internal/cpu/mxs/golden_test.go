package mxs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the Skipped column of testdata/cells.golden.json")

const goldenPath = "testdata/cells.golden.json"

// goldenCell is the timing-visible outcome of one MXS simulation, and
// how far the scheduler skipped through it. Cycles, Instructions and
// PerCPU were recorded with the scan-based window bookkeeping that
// preceded the slot masks, so they pin the pipeline's cycle-level
// behaviour (issue order, stall blame) against that implementation and
// not only against itself; no change to how the loop advances time may
// move them, and -update does not write them. Skipped is the loop's own
// column: it moves whenever NextWork proves a longer or shorter sleep,
// and -update re-records it.
type goldenCell struct {
	Cell         string
	Cycles       uint64
	Instructions uint64
	Skipped      uint64
	PerCPU       []cpu.StallStats
}

type mxsCell struct {
	name string
	arch core.Arch
	cfg  memsys.Config
	mk   func() (workload.Workload, error)
}

// goldenCells lists the benchmark's two MXS workloads: the seven
// applications at quick scale on the paper configuration (mxs_apps) and
// MP3D/pmake on the 4-CPU DRAM-800 point (membound_mxs, MP3D at the
// Figure11_MXS_MP3D_MemBound size).
func goldenCells() []mxsCell {
	quick := func(app string) func() (workload.Workload, error) {
		return func() (workload.Workload, error) { return workload.NewQuick(app) }
	}
	var cells []mxsCell
	add := func(config string, cfg memsys.Config, app string, mk func() (workload.Workload, error)) {
		for _, a := range core.Arches() {
			cells = append(cells, mxsCell{fmt.Sprintf("%s-%s-%s", app, a, config), a, cfg, mk})
		}
	}
	for _, app := range []string{"eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "pmake"} {
		add("paper", memsys.DefaultConfig(), app, quick(app))
	}
	for _, f := range benchfig.Figures() {
		if f.Name == "Figure11_MXS_MP3D_MemBound" {
			add("mxs-membound", f.Config(), f.App, func() (workload.Workload, error) { return f.New(), nil })
		}
	}
	add("mxs-membound", benchfig.MXSMemBoundConfig(), "pmake", quick("pmake"))
	return cells
}

func (c mxsCell) run(t *testing.T) goldenCell {
	t.Helper()
	w, err := c.mk()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(c.arch, core.ModelMXS, c.cfg, w.MemBytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Configure(m); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(m); err != nil {
		t.Fatal(err)
	}
	g := goldenCell{Cell: c.name, Cycles: res.Cycles, Skipped: m.SkippedCycles(), PerCPU: res.PerCPU}
	for _, s := range res.PerCPU {
		g.Instructions += s.Instructions
	}
	return g
}

// TestGoldenCells runs every MXS cell of the repo benchmark and
// compares cycles, instructions and per-CPU StallStats with the
// committed record, and the scheduler's skipped-cycle count with its
// own column of it. With -update the timing columns are still compared
// and only Skipped is rewritten; recording a cell's timing anew (a new
// cell, an intended timing change) starts from a file without it.
func TestGoldenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("27 whole-application MXS simulations")
	}
	cells := goldenCells()
	got := make([]goldenCell, len(cells))
	want := map[string]goldenCell{}
	if raw, err := os.ReadFile(goldenPath); err == nil {
		var rec []goldenCell
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		for _, w := range rec {
			want[w.Cell] = w
		}
	} else if !*update {
		t.Fatal(err)
	}
	// The group returns once every parallel cell has finished.
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			i, c := i, c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				got[i] = c.run(t)
				w, ok := want[c.name]
				if !ok {
					if !*update {
						t.Errorf("%s has no such cell", goldenPath)
					}
					return
				}
				timing := got[i]
				timing.Skipped = w.Skipped
				if !reflect.DeepEqual(timing, w) {
					t.Errorf("timing differs from %s\n got: %+v\nwant: %+v", goldenPath, timing, w)
				}
				if !*update && got[i].Skipped != w.Skipped {
					t.Errorf("skipped %d cycles of %d, %s says %d (-update re-records this column)",
						got[i].Skipped, got[i].Cycles, goldenPath, w.Skipped)
				}
			})
		}
	})
	if *update && !t.Failed() {
		// One cell per line, so a drifted cell is a one-line diff.
		var buf bytes.Buffer
		for i, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == 0 {
				sep = "[\n"
			}
			buf.WriteString(sep)
			buf.Write(line)
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
