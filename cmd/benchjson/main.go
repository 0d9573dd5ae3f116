// Command benchjson establishes the simulator's performance baseline:
// it measures every row of the internal/benchfig figure table twice —
// once with the quiescence-skipping scheduler (the default) and once
// with Config.NoSkip (the tick-everything reference loop) — via
// testing.Benchmark, and writes the results to BENCH_figures.json:
// ns/op, simulated-cycles-per-second and the skip-vs-no-skip speedup
// per figure. CI uploads the file as an artifact so future PRs have a
// perf trajectory to regress against.
//
// With -gate it becomes the CI perf gate instead: it re-measures the
// table and compares same-host speedups against the committed baseline
// without writing anything (the exact cycle counts are the root
// package's TestLedger): the memory-bound Mipsy rows
// (benchfig.Figure.MemBound) keep a 2x skip-vs-no-skip floor, the
// memory-bound MXS row is exempt, and every other row stays within ±30%
// of its baseline skip speedup. -samples N measures each
// cell N times and takes the median, damping scheduler noise on shared
// CI runners.
//
//	benchjson                         # all figures -> BENCH_figures.json
//	benchjson -figures 'MP3D|Ocean' -out /dev/stdout   # print a subset
//	benchjson -gate BENCH_figures.json -samples 3   # CI perf gate
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/cli"
	"cmpsim/internal/core"
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
			_, c, err := benchfig.Run(f, &cfg)
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

// median returns the median of vs (which must be non-empty).
func median[T cmp.Ordered](vs []T) T {
	slices.Sort(vs)
	return vs[len(vs)/2]
}

// measureFigure measures one figure samples times and combines the
// runs: ns/op per cell is the median across samples, and the speedup is
// the median of the per-sample skip/no-skip ratios — each ratio pairs
// two back-to-back runs, so load common to both cancels out instead of
// skewing the quotient of two independently-noisy medians. Sim cycles
// must be identical across every sample — they are deterministic, and a
// drift here is a simulator bug worth dying on.
func measureFigure(f benchfig.Figure, samples int) (figureRow, error) {
	var skipNs, noSkipNs []int64
	var ratios []float64
	var cycles uint64
	for s := 0; s < samples; s++ {
		skip, c, err := benchFigure(f, false)
		if err != nil {
			return figureRow{}, err
		}
		ref, _, err := benchFigure(f, true)
		if err != nil {
			return figureRow{}, err
		}
		if s > 0 && c != cycles {
			return figureRow{}, fmt.Errorf("non-deterministic sim cycles across samples: %d vs %d", c, cycles)
		}
		cycles = c
		skipNs = append(skipNs, skip.NsPerOp())
		noSkipNs = append(noSkipNs, ref.NsPerOp())
		ratios = append(ratios, float64(ref.NsPerOp())/float64(skip.NsPerOp()))
	}
	row := figureRow{
		Name:           f.Name,
		Model:          string(f.Model),
		SimCyclesPerOp: cycles,
		SkipNsPerOp:    median(skipNs),
		NoSkipNsPerOp:  median(noSkipNs),
	}
	row.SkipSimCyclesPerS = cyclesPerSec(cycles, row.SkipNsPerOp)
	row.NoSkipSimCyclesPerS = cyclesPerSec(cycles, row.NoSkipNsPerOp)
	row.Speedup = median(ratios)
	return row, nil
}

// gate tolerances. The memory-bound Mipsy rows prove the skipping
// scheduler earns its keep where latency dominates; the memory-bound MXS
// row has no rule (no floor has been set for it). The default rows only
// guard the skip machinery, with a hardware-tolerant band around the
// baseline speedup.
const (
	gateMemBoundMinSpeedup = 2.0
	gateSpeedupTolerance   = 0.30
)

// runGate re-measures every figure of the baseline and applies the
// gate rules. Returns false if any row fails.
func runGate(baseline report, samples int) bool {
	base := map[string]figureRow{}
	for _, row := range baseline.Figures {
		base[row.Name] = row
	}
	pass, status := true, ""
	fail := func(name, format string, args ...any) {
		pass, status = false, "FAIL"
		fmt.Fprintf(os.Stderr, "benchjson: gate FAIL %s: %s\n", name, fmt.Sprintf(format, args...))
	}
	for _, f := range benchfig.Figures() {
		b, ok := base[f.Name]
		if !ok {
			fail(f.Name, "not in the baseline (regenerate BENCH_figures.json)")
			continue
		}
		delete(base, f.Name)
		row, err := measureFigure(f, samples)
		if err != nil {
			fail(f.Name, "%v", err)
			continue
		}
		status = "ok"
		switch {
		case f.MemBound() && f.Model == core.ModelMipsy:
			if row.Speedup < gateMemBoundMinSpeedup {
				fail(f.Name, "skip speedup %.2fx below the %.1fx floor (baseline %.2fx)",
					row.Speedup, gateMemBoundMinSpeedup, b.Speedup)
			}
		case f.MemBound():
			// Memory-bound MXS: exempt (see the gate tolerances).
		default:
			lo := b.Speedup * (1 - gateSpeedupTolerance)
			hi := b.Speedup * (1 + gateSpeedupTolerance)
			if row.Speedup < lo || row.Speedup > hi {
				fail(f.Name, "skip speedup %.2fx outside ±%.0f%% of baseline %.2fx [%.2f, %.2f]",
					row.Speedup, 100*gateSpeedupTolerance, b.Speedup, lo, hi)
			}
		}
		fmt.Fprintf(os.Stderr, "%-28s %12d sim-cycles  speedup %.2fx (baseline %.2fx)  %s\n",
			f.Name, row.SimCyclesPerOp, row.Speedup, b.Speedup, status)
	}
	for _, row := range baseline.Figures {
		if _, left := base[row.Name]; left {
			fail(row.Name, "in the baseline but no longer measured (regenerate BENCH_figures.json)")
		}
	}
	return pass
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
	gatePath := flag.String("gate", "", "CI gate mode: compare fresh measurements against this baseline file and exit non-zero on regression (writes nothing)")
	var samples int
	cli.CountVar(flag.CommandLine, &samples, "samples", 1, 1, "measure each cell N times and keep the median ns/op")
	flag.Parse()
	sel, err := selectFigures(*figures)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}

	if *gatePath != "" {
		data, err := os.ReadFile(*gatePath)
		if err != nil {
			cli.Fatal(err)
		}
		var baseline report
		if err := json.Unmarshal(data, &baseline); err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", *gatePath, err))
		}
		if !runGate(baseline, samples) {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchjson: gate passed")
		return
	}

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, f := range sel {
		row, err := measureFigure(f, samples)
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
