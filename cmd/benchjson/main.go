// Command benchjson records the simulator's performance trajectory: it
// measures every row of the internal/benchfig figure table twice — once
// with the quiescence-skipping scheduler (the default) and once with
// Config.NoSkip (the tick-everything reference loop) — via
// testing.Benchmark, and writes the results to BENCH_figures.json:
// ns/op, simulated-cycles-per-second and the skip-vs-no-skip speedup
// per figure. CI uploads the file as an artifact so every PR leaves a
// perf data point. Nothing here is gated: the exact cycle counts, the
// per-row work counts and the memory-bound rows' skip floor are the
// root package's TestLedger.
//
//	benchjson                         # all figures -> BENCH_figures.json
//	benchjson -figures 'MP3D|Ocean' -out /dev/stdout   # print a subset
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"testing"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/cli"
)

// figureRow is one figure's measurements. Simulated cycle counts are
// identical with and without skipping (the scheduler is observably
// invisible; see skip_test.go), so one sim_cycles_per_op field serves
// both throughput numbers.
type figureRow struct {
	Name                string  `json:"name"`
	Model               string  `json:"model"`
	SimCyclesPerOp      uint64  `json:"sim_cycles_per_op"`
	SkipNsPerOp         int64   `json:"skip_ns_per_op"`
	SkipSimCyclesPerS   float64 `json:"skip_sim_cycles_per_sec"`
	NoSkipNsPerOp       int64   `json:"noskip_ns_per_op"`
	NoSkipSimCyclesPerS float64 `json:"noskip_sim_cycles_per_sec"`
	Speedup             float64 `json:"speedup"`
}

// report is the BENCH_figures.json schema. No timestamp on purpose:
// the committed baseline should only diff when the numbers move.
type report struct {
	GoVersion string      `json:"go_version"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"num_cpu"`
	Figures   []figureRow `json:"figures"`
}

// benchFigure times one (figure, noSkip) cell and returns the result
// plus the simulated cycles of a single op.
func benchFigure(f benchfig.Figure, noSkip bool) (testing.BenchmarkResult, uint64, error) {
	var cycles uint64
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		cfg := f.Config()
		cfg.NoSkip = noSkip
		for i := 0; i < b.N; i++ {
			c, err := benchfig.Run(f, cfg)
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			cycles = c
		}
	})
	return r, cycles, runErr
}

// cyclesPerSec converts a run's ns/op, always positive once
// testing.Benchmark has run it without error, to simulated cycles/s.
func cyclesPerSec(cycles uint64, nsPerOp int64) float64 {
	return float64(cycles) / (float64(nsPerOp) * 1e-9)
}

// measureFigure times one figure with and without skipping. The
// simulated cycles must agree: the scheduler is observably invisible,
// and a drift here is a simulator bug worth dying on.
func measureFigure(f benchfig.Figure) (figureRow, error) {
	skip, cycles, err := benchFigure(f, false)
	if err != nil {
		return figureRow{}, err
	}
	ref, refCycles, err := benchFigure(f, true)
	if err != nil {
		return figureRow{}, err
	}
	if refCycles != cycles {
		return figureRow{}, fmt.Errorf("sim cycles differ with and without skipping: %d vs %d", cycles, refCycles)
	}
	row := figureRow{
		Name:           f.Name,
		Model:          string(f.Model),
		SimCyclesPerOp: cycles,
		SkipNsPerOp:    skip.NsPerOp(),
		NoSkipNsPerOp:  ref.NsPerOp(),
	}
	row.SkipSimCyclesPerS = cyclesPerSec(cycles, row.SkipNsPerOp)
	row.NoSkipSimCyclesPerS = cyclesPerSec(cycles, row.NoSkipNsPerOp)
	row.Speedup = float64(row.NoSkipNsPerOp) / float64(row.SkipNsPerOp)
	return row, nil
}

// selectFigures returns the table rows whose names match pattern ("" =
// every row). A pattern that matches none is an error listing the
// names, so a typo cannot write an empty baseline.
func selectFigures(pattern string) ([]benchfig.Figure, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	var sel []benchfig.Figure
	var names []string
	for _, f := range benchfig.Figures() {
		names = append(names, f.Name)
		if re.MatchString(f.Name) {
			sel = append(sel, f)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("-figures %q matches none of %v", pattern, names)
	}
	return sel, nil
}

func main() {
	out := flag.String("out", "BENCH_figures.json", "output path")
	figures := flag.String("figures", "", "regexp selecting figure names (\"\" = all)")
	verbose := flag.Bool("v", true, "print a progress line per figure on stderr")
	flag.Parse()
	sel, err := selectFigures(*figures)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, f := range sel {
		row, err := measureFigure(f)
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", f.Name, err))
		}
		rep.Figures = append(rep.Figures, row)
		if *verbose {
			fmt.Fprintf(os.Stderr, "%-28s %12d sim-cycles  skip %10dns/op  no-skip %10dns/op  %.2fx\n",
				f.Name, row.SimCyclesPerOp, row.SkipNsPerOp, row.NoSkipNsPerOp, row.Speedup)
		}
	}

	err = cli.WriteFile(*out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	if err != nil {
		cli.Fatal(err)
	}
}
