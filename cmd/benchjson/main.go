// Command benchjson establishes the simulator's performance baseline:
// it measures every row of the internal/benchfig figure table twice —
// once with the quiescence-skipping scheduler (the default) and once
// with Config.NoSkip (the tick-everything reference loop) — via
// testing.Benchmark, and writes the results to BENCH_figures.json:
// ns/op, simulated-cycles-per-second and the skip-vs-no-skip speedup
// per figure. CI uploads the file as an artifact so future PRs have a
// perf trajectory to regress against.
//
// Detailed-CPU (MXS) rows are additionally measured with the parallel
// tick scheduler at -sim-jobs 4. The simulated cycle count must match
// the serial run exactly, and the wall-clock ratio against the same
// sample's serial run is recorded as par_speedup. A row whose parallel
// run is slower than its serial run is marked par_regression: true and
// excluded from the gate's parallel floor — the mark makes honest
// baselines from hosts where sharding cannot win committable without
// disarming the gate everywhere else.
//
// With -gate it becomes the CI perf gate instead: it re-measures the
// table and compares against the committed baseline without writing
// anything. Simulated cycle counts must match exactly (they are
// deterministic; a mismatch means the baseline is stale). Wall-clock
// figures differ across hardware, so the rest of the gate checks
// same-host speedups: the memory-bound rows (benchfig.Figure.MemBound)
// keep floors, 2x skip-vs-no-skip under Mipsy and 1.5x parallel-vs-serial
// under MXS on hosts with four or more cores, and every other row stays
// within ±30% of its baseline skip speedup. -samples N measures each
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

	// Parallel-tick measurement (MXS rows only; zero elsewhere).
	// ParSpeedup is the median of per-sample serial/parallel ratios;
	// each ratio pairs back-to-back runs of the same sample. Simulated
	// cycles are verified identical to the serial run, so
	// SimCyclesPerOp serves the parallel throughput number too.
	// ParRegression marks a row whose parallel run lost to its serial
	// run on this host; the gate excludes marked rows from the parallel
	// floor.
	ParJobs          int     `json:"par_jobs,omitempty"`
	ParNsPerOp       int64   `json:"par_ns_per_op,omitempty"`
	ParSimCyclesPerS float64 `json:"par_sim_cycles_per_sec,omitempty"`
	ParSpeedup       float64 `json:"par_speedup,omitempty"`
	ParRegression    bool    `json:"par_regression,omitempty"`
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

// benchFigure times one (figure, noSkip, simJobs) cell and returns the
// result plus the simulated cycles of a single op.
func benchFigure(f benchfig.Figure, noSkip bool, simJobs int) (testing.BenchmarkResult, uint64, error) {
	var cycles uint64
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		cfg := f.Config()
		cfg.NoSkip = noSkip
		cfg.SimJobs = simJobs
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

// parJobs is the worker count of the parallel-tick measurement cell.
const parJobs = 4

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
// MXS figures additionally measure the parallel tick scheduler at
// parJobs workers, pairing each sample's parallel run against that
// sample's serial skip run for the par_speedup ratio; its simulated
// cycles must match the serial run exactly.
func measureFigure(f benchfig.Figure, samples int) (figureRow, error) {
	par := f.Model == core.ModelMXS
	var skipNs, noSkipNs, parNs []int64
	var ratios, parRatios []float64
	var cycles uint64
	for s := 0; s < samples; s++ {
		skip, c, err := benchFigure(f, false, 1)
		if err != nil {
			return figureRow{}, err
		}
		ref, _, err := benchFigure(f, true, 1)
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
		if par {
			pres, pc, err := benchFigure(f, false, parJobs)
			if err != nil {
				return figureRow{}, err
			}
			if pc != c {
				return figureRow{}, fmt.Errorf("sim cycles diverge at -sim-jobs %d: serial %d vs parallel %d", parJobs, c, pc)
			}
			parNs = append(parNs, pres.NsPerOp())
			parRatios = append(parRatios, float64(skip.NsPerOp())/float64(pres.NsPerOp()))
		}
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
	if par {
		row.ParJobs = parJobs
		row.ParNsPerOp = median(parNs)
		row.ParSimCyclesPerS = cyclesPerSec(cycles, row.ParNsPerOp)
		row.ParSpeedup = median(parRatios)
		row.ParRegression = row.ParSpeedup < 1
	}
	return row, nil
}

// gate tolerances. The memory-bound Mipsy rows prove the skipping
// scheduler earns its keep where latency dominates; the memory-bound MXS
// row is exempt from that floor (its out-of-order CPUs block at
// staggered times, so the serial global skip barely fires) and is the
// parallel-tick sentinel instead. The default rows only guard the skip
// machinery, with a hardware-tolerant band around the baseline speedup.
// Parallel speedups get a floor, not a band, since the baseline host may
// have another core count; baselines marked par_regression, and hosts
// with fewer than parJobs cores (where sharding only wins the per-CPU
// skip the serial loop does itself), are exempt.
const (
	gateMemBoundMinSpeedup = 2.0
	gateSpeedupTolerance   = 0.30
	gateParMinSpeedup      = 1.5 // on hosts with >= parJobs cores (CI runners)
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
		case row.SimCyclesPerOp != b.SimCyclesPerOp:
			fail(f.Name, "sim cycles changed: %d -> %d (simulation output moved; regenerate the baseline deliberately)",
				b.SimCyclesPerOp, row.SimCyclesPerOp)
		case f.MemBound() && f.Model == core.ModelMipsy:
			if row.Speedup < gateMemBoundMinSpeedup {
				fail(f.Name, "skip speedup %.2fx below the %.1fx floor (baseline %.2fx)",
					row.Speedup, gateMemBoundMinSpeedup, b.Speedup)
			}
		case f.MemBound():
			// Memory-bound MXS: the parallel-tick sentinel, checked below.
		default:
			lo := b.Speedup * (1 - gateSpeedupTolerance)
			hi := b.Speedup * (1 + gateSpeedupTolerance)
			if row.Speedup < lo || row.Speedup > hi {
				fail(f.Name, "skip speedup %.2fx outside ±%.0f%% of baseline %.2fx [%.2f, %.2f]",
					row.Speedup, 100*gateSpeedupTolerance, b.Speedup, lo, hi)
			}
		}
		if f.MemBound() && row.ParJobs > 0 && status == "ok" {
			// A baseline marked par_regression records that sharding loses
			// on its host; the floor would only re-measure that fact.
			if !b.ParRegression && runtime.NumCPU() >= parJobs && row.ParSpeedup < gateParMinSpeedup {
				fail(f.Name, "parallel-tick speedup %.2fx at -sim-jobs %d below the %.2fx floor (baseline %.2fx)",
					row.ParSpeedup, row.ParJobs, gateParMinSpeedup, b.ParSpeedup)
			}
		}
		line := fmt.Sprintf("%-28s %12d sim-cycles  speedup %.2fx (baseline %.2fx)",
			f.Name, row.SimCyclesPerOp, row.Speedup, b.Speedup)
		if row.ParJobs > 0 {
			line += fmt.Sprintf("  par %.2fx", row.ParSpeedup)
			if row.ParRegression {
				line += " (par regression)"
			}
		}
		fmt.Fprintf(os.Stderr, "%s  %s\n", line, status)
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
	samples := flag.Int("samples", 1, "measure each cell N times and keep the median ns/op")
	flag.Parse()
	sel, err := selectFigures(*figures)
	if err == nil && *samples < 1 {
		err = fmt.Errorf("-samples %d: want at least 1", *samples)
	}
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
		if !runGate(baseline, *samples) {
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
		row, err := measureFigure(f, *samples)
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", f.Name, err))
		}
		rep.Figures = append(rep.Figures, row)
		if *verbose {
			line := fmt.Sprintf("%-28s %12d sim-cycles  skip %10dns/op  no-skip %10dns/op  %.2fx",
				f.Name, row.SimCyclesPerOp, row.SkipNsPerOp, row.NoSkipNsPerOp, row.Speedup)
			if row.ParJobs > 0 {
				line += fmt.Sprintf("  par%d %10dns/op  %.2fx", row.ParJobs, row.ParNsPerOp, row.ParSpeedup)
			}
			fmt.Fprintln(os.Stderr, line)
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
