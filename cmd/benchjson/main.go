// Command benchjson establishes the simulator's performance baseline:
// it measures every figure benchmark of the shared internal/benchfig
// matrix twice — once with the quiescence-skipping scheduler (the
// default) and once with Config.NoSkip (the tick-everything reference
// loop) — via testing.Benchmark, and writes the results to
// BENCH_figures.json: ns/op, simulated-cycles-per-second and the
// skip-vs-no-skip speedup per figure. CI uploads the file as an
// artifact so future PRs have a perf trajectory to regress against.
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
// matrix and compares against the committed baseline without writing
// anything. Simulated cycle counts must match the baseline exactly
// (they are deterministic; a mismatch means the baseline is stale and
// must be regenerated). Wall-clock figures differ across hardware, so
// the gate checks dimensionless same-host speedups instead of ns/op:
// Mipsy MemBound rows must keep a skip-vs-no-skip speedup of at least
// 2x, the MXS MemBound row must keep a parallel-vs-serial speedup of
// at least 1.5x on hosts with four or more cores (on fewer the floor
// does not apply: the serial loop skips per CPU itself, so without
// cores to overlap on sharding has nothing to win), and every
// other row must stay within ±30% of its baseline skip speedup.
// -samples N measures each cell N times and takes the median, damping
// scheduler noise on shared CI runners.
//
//	benchjson                         # all figures -> BENCH_figures.json
//	benchjson -figures 'MP3D|Ocean'   # subset, same file
//	benchjson -out /dev/stdout        # print instead of writing
//	benchjson -gate BENCH_figures.json -samples 3   # CI perf gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
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

func cyclesPerSec(cycles uint64, nsPerOp int64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(cycles) / (float64(nsPerOp) * 1e-9)
}

// medianInt64 returns the median of vs (which must be non-empty).
func medianInt64(vs []int64) int64 {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs[len(vs)/2]
}

func medianFloat64(vs []float64) float64 {
	sort.Float64s(vs)
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
		if ns := skip.NsPerOp(); ns > 0 {
			ratios = append(ratios, float64(ref.NsPerOp())/float64(ns))
		}
		if par {
			pres, pc, err := benchFigure(f, false, parJobs)
			if err != nil {
				return figureRow{}, err
			}
			if pc != c {
				return figureRow{}, fmt.Errorf("sim cycles diverge at -sim-jobs %d: serial %d vs parallel %d", parJobs, c, pc)
			}
			parNs = append(parNs, pres.NsPerOp())
			if ns := pres.NsPerOp(); ns > 0 {
				parRatios = append(parRatios, float64(skip.NsPerOp())/float64(ns))
			}
		}
	}
	row := figureRow{
		Name:           f.Name,
		Model:          string(f.Model),
		SimCyclesPerOp: cycles,
		SkipNsPerOp:    medianInt64(skipNs),
		NoSkipNsPerOp:  medianInt64(noSkipNs),
	}
	row.SkipSimCyclesPerS = cyclesPerSec(cycles, row.SkipNsPerOp)
	row.NoSkipSimCyclesPerS = cyclesPerSec(cycles, row.NoSkipNsPerOp)
	if len(ratios) > 0 {
		row.Speedup = medianFloat64(ratios)
	}
	if par {
		row.ParJobs = parJobs
		row.ParNsPerOp = medianInt64(parNs)
		row.ParSimCyclesPerS = cyclesPerSec(cycles, row.ParNsPerOp)
		if len(parRatios) > 0 {
			row.ParSpeedup = medianFloat64(parRatios)
		}
		row.ParRegression = row.ParSpeedup > 0 && row.ParSpeedup < 1
	}
	return row, nil
}

// gate tolerances. Mipsy MemBound rows exist precisely to prove the
// quiescence-skipping scheduler earns its keep on latency-dominated
// configurations (the MXS MemBound row is exempt from the skip floor:
// its out-of-order CPUs block at staggered times, so the serial global
// skip barely fires there — that row's sentinel is the parallel-tick
// floor instead). The default rows only guard against the skip
// machinery itself regressing, so they get a wide hardware-tolerant
// band around the baseline's dimensionless speedup. Parallel speedups
// are floor-checked rather than banded: the baseline may come from a
// host with a different core count, so comparing against it is
// meaningless. Rows the baseline marks par_regression are excluded
// from the floor entirely, and so is every row on a host with fewer
// than parJobs cores: all sharding can win there is the per-CPU skip,
// which the serial loop it is compared against does itself.
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
	pass := true
	fail := func(name, format string, args ...any) {
		pass = false
		fmt.Fprintf(os.Stderr, "benchjson: gate FAIL %s: %s\n", name, fmt.Sprintf(format, args...))
	}
	seen := map[string]bool{}
	for _, f := range benchfig.Figures() {
		b, ok := base[f.Name]
		if !ok {
			fail(f.Name, "not in the baseline (regenerate BENCH_figures.json)")
			continue
		}
		seen[f.Name] = true
		row, err := measureFigure(f, samples)
		if err != nil {
			fail(f.Name, "%v", err)
			continue
		}
		status := "ok"
		memBound := strings.Contains(f.Name, "MemBound")
		switch {
		case row.SimCyclesPerOp != b.SimCyclesPerOp:
			fail(f.Name, "sim cycles changed: %d -> %d (simulation output moved; regenerate the baseline deliberately)",
				b.SimCyclesPerOp, row.SimCyclesPerOp)
			status = "FAIL"
		case memBound && f.Model == core.ModelMipsy:
			if row.Speedup < gateMemBoundMinSpeedup {
				fail(f.Name, "skip speedup %.2fx below the %.1fx floor (baseline %.2fx)",
					row.Speedup, gateMemBoundMinSpeedup, b.Speedup)
				status = "FAIL"
			}
		case memBound:
			// MXS MemBound: the parallel-tick sentinel, checked below.
		default:
			lo := b.Speedup * (1 - gateSpeedupTolerance)
			hi := b.Speedup * (1 + gateSpeedupTolerance)
			if row.Speedup < lo || row.Speedup > hi {
				fail(f.Name, "skip speedup %.2fx outside ±%.0f%% of baseline %.2fx [%.2f, %.2f]",
					row.Speedup, 100*gateSpeedupTolerance, b.Speedup, lo, hi)
				status = "FAIL"
			}
		}
		if memBound && row.ParJobs > 0 && status == "ok" {
			// A baseline marked par_regression records that sharding loses
			// on its host; the floor would only re-measure that fact.
			if !b.ParRegression && runtime.NumCPU() >= parJobs && row.ParSpeedup < gateParMinSpeedup {
				fail(f.Name, "parallel-tick speedup %.2fx at -sim-jobs %d below the %.2fx floor (baseline %.2fx)",
					row.ParSpeedup, row.ParJobs, gateParMinSpeedup, b.ParSpeedup)
				status = "FAIL"
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
		if !seen[row.Name] {
			fail(row.Name, "in the baseline but no longer measured (regenerate BENCH_figures.json)")
		}
	}
	return pass
}

func main() {
	out := flag.String("out", "BENCH_figures.json", "output path")
	figures := flag.String("figures", "", "regexp selecting figure names (\"\" = all)")
	verbose := flag.Bool("v", true, "print a progress line per figure on stderr")
	gatePath := flag.String("gate", "", "CI gate mode: compare fresh measurements against this baseline file and exit non-zero on regression (writes nothing)")
	samples := flag.Int("samples", 1, "measure each cell N times and keep the median ns/op")
	flag.Parse()
	if *samples < 1 {
		*samples = 1
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

	var sel *regexp.Regexp
	if *figures != "" {
		re, err := regexp.Compile(*figures)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		sel = re
	}

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, f := range benchfig.Figures() {
		if sel != nil && !sel.MatchString(f.Name) {
			continue
		}
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

	err := cli.WriteFile(*out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	if err != nil {
		cli.Fatal(err)
	}
}
