// Command benchmark is the repository's benchmark: five workloads made
// of whole simulations (cells), five end-to-end host-time metrics, and
// a per-layer decomposition of where the host time goes, taken from
// outside the simulator through its public functions. README.md
// explains the workloads, the layer map and how to read the numbers;
// BENCHMARK.json at the repository root is the contract.
//
//	go run -C benchmark . [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// result is what -out writes and -compare reads.
type result struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest"` // over the cells' digests in canonical order
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Passes    []passRow          `json:"passes,omitempty"`
	Cells     []cellRow          `json:"cells"`
}

// passRow is one measured pass's raw values.
type passRow struct {
	WallS        float64 `json:"wall_s"`
	RunS         float64 `json:"run_s"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	AllocMB      float64 `json:"alloc_mb"`
}

type cellRow struct {
	cell
	RunS         []float64 `json:"run_s"`   // per measured pass
	SetupS       []float64 `json:"setup_s"` // every set-up sampled
	Cycles       uint64    `json:"cycles"`
	Instructions uint64    `json:"instructions"`
	Skipped      uint64    `json:"skipped"`
	Digest       string    `json:"digest"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all of them, passes interleaved)")
	seed := fs.Int64("seed", 0, "0 runs the canonical data sets in order; any other seed draws sizes near them and shuffles the cells")
	seconds := fs.Float64("seconds", 20, "measured time per workload: passes run while time is left, at least two and at most three")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
	out := fs.String("out", "", "write the full result (host, parameters, per-pass and per-cell values) to this JSON file")
	spansOut := fs.String("spans", "", "write the traced pass's spans to this file as Chrome trace JSON")
	tmp := fs.String("tmp", ".bench_build", "scratch directory for result caches (created if missing)")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare base.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}

	failed, err := execute(stdout, *workload, *seed, *seconds, *trace, *out, *spansOut, *tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// execute runs the selected workloads (all of them for an empty name):
// warm-up, the untraced passes unless trace is 1, the traced run unless
// trace is 0. It returns the number of failed operations.
func execute(stdout io.Writer, workload string, seed int64, seconds float64, trace int, out, spansOut, tmp string) (int, error) {
	var benches []*bench
	for i := range specs {
		if workload != "" && specs[i].name != workload {
			continue
		}
		b, err := newBench(&specs[i], seed, tmp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", specs[i].name, err)
		}
		benches = append(benches, b)
	}
	if len(benches) == 0 {
		return 0, fmt.Errorf("unknown workload %q", workload)
	}

	var sp *spanLog
	if trace != 0 {
		sp = &spanLog{}
	}
	invocation := sp.begin(0, "invocation")
	for _, b := range benches {
		if err := b.warmUp(); err != nil {
			return 0, fmt.Errorf("%s: %w", b.spec.name, err)
		}
	}
	if trace != 1 {
		if err := measure(benches, seconds); err != nil {
			return 0, err
		}
	}
	res := result{Host: host(benches[0].workers), Seed: seed, Seconds: seconds}
	failed := 0
	for _, b := range benches {
		var layers map[string]float64
		if trace != 0 {
			id := sp.begin(invocation, "workload:"+b.spec.name)
			var err error
			layers, err = b.traced(sp, id)
			sp.end(id)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", b.spec.name, err)
			}
		}
		wr := b.result()
		wr.PerLayer = layers
		res.Workloads = append(res.Workloads, wr)
		failed += wr.Failed
	}
	sp.end(invocation)

	for i := range res.Workloads {
		printWorkload(stdout, &res.Workloads[i])
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return failed, err
		}
	}
	if spansOut != "" && sp != nil {
		if err := sp.write(spansOut); err != nil {
			return failed, err
		}
	}
	if len(res.Workloads) == 1 && trace >= 0 {
		printContractLine(stdout, &res.Workloads[0], trace)
	}
	return failed, nil
}

// maxPasses caps the measured passes. Every time is the fastest of a
// cell's samples, whose expectation falls as samples are added, so runs
// compare only at equal pass counts: three on this host, fewer only
// when the host is so slow that two passes already fill the seconds.
const maxPasses = 3

// measure runs untraced passes, one pass of every workload per round,
// until each workload has had its seconds: at least two rounds, at most
// maxPasses, and a round starts only while time is left, so a run
// overshoots by less than one round.
func measure(benches []*bench, seconds float64) error {
	budget := seconds * float64(len(benches))
	start := time.Now()
	for round := 1; ; round++ {
		for _, b := range benches {
			if err := b.measuredPass(); err != nil {
				return fmt.Errorf("%s: %w", b.spec.name, err)
			}
		}
		if round == maxPasses || (round >= 2 && time.Since(start).Seconds() >= budget) {
			return nil
		}
	}
}

// result assembles the workload's result rows from its measured
// passes (none when only the traced pass runs).
func (b *bench) result() workloadResult {
	wr := workloadResult{Name: b.spec.name, Attempted: b.attempt, Failed: b.failed, Errors: b.errs}
	if len(b.passes) > 0 {
		wr.EndToEnd = b.endToEnd()
	}
	for _, p := range b.passes {
		wr.Passes = append(wr.Passes, passRow{b.wallS(p), p.runS(), p.cycles(), p.instructions(), p.allocMB})
	}
	for i := range b.cells {
		row := cellRow{cell: b.cells[i]}
		for _, p := range b.passes {
			if s := p.samples[i]; s.err == nil {
				row.RunS = append(row.RunS, s.runS())
				row.SetupS = append(row.SetupS, p.setups[i]...)
			}
		}
		for _, p := range append(b.passes, b.tracedPass) {
			if p != nil && p.samples[i].err == nil {
				s := p.samples[i]
				row.Cycles, row.Instructions, row.Skipped, row.Digest = s.res.Cycles, s.res.Instructions(), s.skipped, s.digest
				break
			}
		}
		wr.Cells = append(wr.Cells, row)
	}
	// The workload digest ignores the shuffle: cells in tag order.
	rows := append([]cellRow(nil), wr.Cells...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].tag() < rows[j].tag() })
	var all []string
	for _, r := range rows {
		all = append(all, r.tag()+"="+r.Digest)
	}
	wr.Digest = digestStrings(all)
	return wr
}

func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "== %s: %d cells, %d measured passes, %d operations attempted, %d failed\n",
		wr.Name, len(wr.Cells), len(wr.Passes), wr.Attempted, wr.Failed)
	for _, m := range endToEndMetrics {
		if s, ok := wr.EndToEnd[m.name]; ok {
			fmt.Fprintf(w, "%-16s %-32s %14.6g %-10s (single passes: %s)\n", wr.Name, m.name, s.Value, m.unit, fmtValues(s.Passes))
		}
	}
	for _, m := range perLayerMetrics {
		if v, ok := wr.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "%-16s %-32s %14.6g %s\n", wr.Name, m.name, v, m.unit)
		}
	}
}

func fmtValues(v []float64) string {
	var sb strings.Builder
	for i, x := range v {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.5g", x)
	}
	return sb.String()
}

// printContractLine prints the one-line JSON object BENCHMARK.json's
// driver reads: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1.
func printContractLine(w io.Writer, wr *workloadResult, trace int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace == 0 {
		for _, m := range endToEndMetrics {
			metrics[m.name] = value{wr.EndToEnd[m.name].Value, m.unit}
		}
	} else {
		for _, m := range perLayerMetrics {
			metrics[m.name] = value{wr.PerLayer[m.name], m.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   wr.Failed == 0,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}
