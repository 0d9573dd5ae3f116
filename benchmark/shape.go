package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/stats"
)

//go:embed paper_shape.json
var paperShapeJSON []byte

// shapeFigure is one figure's architecture ordering as the paper
// reports it.
type shapeFigure struct {
	Figure int         `json:"figure"`
	App    string      `json:"app"`
	Paper  string      `json:"paper"`
	Faster [][2]string `json:"faster"`
}

// paperShape evaluates paper_shape.json on the pass: every application
// that ran on all three architectures under Mipsy with the paper's
// parameters is assembled into a figure by stats.BuildFigure and its
// normalized execution times are held against the paper's ordering. It
// returns the figures checked, the figures that match, and the mean
// time of one BuildFigure call. A mismatch is a known difference
// between the model and the paper (EXPERIMENTS.md records Figure 6),
// not a failed operation: it is reported as a count that must not move.
func (b *bench) paperShape(p *pass) (checked, matched int, buildUs float64) {
	var shape struct {
		Figures []shapeFigure `json:"figures"`
	}
	if err := json.Unmarshal(paperShapeJSON, &shape); err != nil {
		b.fail("paper_shape.json: %v", err)
		return 0, 0, 0
	}
	var build float64
	builds := 0
	for _, f := range shape.Figures {
		runs := map[core.Arch]*core.RunResult{}
		for i, c := range b.cells {
			if c.App == f.App && c.Model == core.ModelMipsy && c.Config == "paper" && p.samples[i].err == nil {
				runs[c.Arch] = p.samples[i].res
			}
		}
		if len(runs) != len(core.Arches()) {
			continue
		}
		t0 := time.Now()
		fig := stats.BuildFigure(fmt.Sprintf("Figure %d", f.Figure), f.App, core.ModelMipsy, runs)
		build += time.Since(t0).Seconds()
		builds++
		norm := map[string]float64{}
		for _, r := range fig.Rows {
			norm[string(r.Arch)] = r.Norm.Total
		}
		checked++
		ok := true
		for _, pair := range f.Faster {
			if !(norm[pair[0]] < norm[pair[1]]) {
				ok = false
			}
		}
		if ok {
			matched++
		} else {
			fmt.Fprintf(os.Stderr, "benchmark: %s: figure %d (%s): paper has %q, measured l1=%.3f l2=%.3f mem=%.3f\n",
				b.spec.name, f.Figure, f.App, f.Paper, norm["shared-l1"], norm["shared-l2"], norm["shared-mem"])
		}
	}
	if builds > 0 {
		buildUs = build / float64(builds) * 1e6
	}
	return checked, matched, buildUs
}
