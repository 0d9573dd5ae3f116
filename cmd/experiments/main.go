// Command experiments regenerates every table and figure of the paper's
// evaluation in one run: Table 1 (functional-unit latencies), Table 2
// (contention-free access latencies), Figures 4-10 (per-application
// execution-time breakdowns and miss rates under the simple CPU model),
// the Section 4.1 MP3D L2-associativity ablation, and Figure 11 (IPC
// breakdowns under the detailed dynamic superscalar model).
//
// The full (architecture × CPU model × workload) grid is dispatched
// through the internal/runner worker pool: independent runs execute on
// up to -jobs cores and results are merged in stable order, so the
// printed figures are byte-identical to a -jobs=1 run. With -cache-dir
// set, finished cells are memoized on disk and later invocations skip
// them entirely.
//
//	experiments                  # full paper-scale run (~13 s on 2 cores)
//	experiments -quick           # reduced data sets for a fast smoke run
//	experiments -skip-mxs        # only the Mipsy figures
//	experiments -jobs 4          # shard runs across 4 workers
//	experiments -cache-dir .sim  # reuse cached results across invocations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/cli"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/cyc"
	"cmpsim/internal/isa"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/runner"
	"cmpsim/internal/stats"
)

// figureSpec is one printed row of the figure table. jobIdx are the
// positions of its per-architecture jobs (in core.Arches() order) in
// the dispatched job slice.
type figureSpec struct {
	benchfig.Figure
	jobIdx [3]int
}

// grid accumulates the full experiment job list plus each job's trace
// ring for the sink files, and, once run, their results.
type grid struct {
	pool    *cli.Pool
	inst    *cli.Instruments
	quick   *bool
	w       io.Writer
	jobs    []runner.Job
	rings   []*obsv.Ring
	results []runner.Result
}

// addJob appends one run to the grid, with its own instrument
// attachments, and returns its job index.
func (g *grid) addJob(wl string, arch core.Arch, model core.CPUModel, cfg memsys.Config, tag string) int {
	g.rings = append(g.rings, g.inst.Attach(&cfg))
	g.jobs = append(g.jobs, g.pool.Job(wl, *g.quick, arch, model, cfg, tag))
	return len(g.jobs) - 1
}

// addFigures appends the three-architecture runs of every titled table
// row under model.
func (g *grid) addFigures(model core.CPUModel) []figureSpec {
	var specs []figureSpec
	for _, f := range benchfig.Figures() {
		if f.Title == "" || f.Model != model {
			continue
		}
		spec := figureSpec{Figure: f}
		for i, a := range core.Arches() {
			spec.jobIdx[i] = g.addJob(f.App, a, model, f.Config(), runTag(f.Title)+"-"+string(a))
		}
		specs = append(specs, spec)
	}
	return specs
}

// result returns job idx's run after writing its trace and profile
// files; a failed run or sink is an error that ends the campaign.
func (g *grid) result(idx int) (*core.RunResult, error) {
	r := g.results[idx]
	if r.Err != nil {
		return nil, r.Err
	}
	tag := g.jobs[idx].Tag
	if err := g.inst.WriteTraces(g.rings[idx], tag); err != nil {
		return nil, err
	}
	return r.Res, g.inst.WriteProfile(r.Res.Profile, tag)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		cli.Fatal(err)
	}
}

// run parses args, runs the whole campaign and prints its tables and
// figures on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	g := grid{quick: cli.QuickFlag(fs), pool: cli.PoolFlags(fs), inst: cli.InstrumentFlags(fs), w: stdout}
	g.pool.RunReportFlags(fs)
	skipMXS := fs.Bool("skip-mxs", false, "skip the detailed-CPU (Figure 11) runs")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	start := time.Now()
	table1(stdout)
	table2(stdout)

	pool, err := g.pool.Open()
	if err != nil {
		return err
	}

	// Build the whole grid up front — the Mipsy figures, the Section 4.1
	// ablation, and the MXS figures — then dispatch it through one pool
	// run so every independent cell can execute concurrently. Printing
	// happens afterwards in table order, which keeps the output
	// byte-identical to a serial run.
	mipsySpecs := g.addFigures(core.ModelMipsy)
	ab, ablationJob := benchfig.Ablation(), len(g.jobs)
	for _, assoc := range ab.L2Assocs {
		cfg := memsys.DefaultConfig()
		cfg.L2Assoc = assoc
		g.addJob(ab.App, ab.Arch, core.ModelMipsy, cfg, fmt.Sprintf("ablation-%s-l2assoc-%d", ab.App, assoc))
	}
	var mxsSpecs []figureSpec
	if !*skipMXS {
		mxsSpecs = g.addFigures(core.ModelMXS)
	}

	g.results = pool.Run(g.jobs)

	for _, spec := range mipsySpecs {
		if err := g.printFigure(spec); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "=== %s ===\n", ab.Title)
	for i, assoc := range ab.L2Assocs {
		res, err := g.result(ablationJob + i)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  L2 %d-way: cycles=%-10d L2 miss rate=%5.1f%%  L1R=%5.1f%%\n",
			assoc, res.Cycles, 100*res.MemReport.L2.MissRate(), 100*res.MemReport.L1D.ReplRate())
	}
	fmt.Fprintln(stdout)

	if !*skipMXS {
		fmt.Fprintf(stdout, "=== %s ===\n", benchfig.MXSTitle)
		for _, spec := range mxsSpecs {
			if err := g.printFigure(spec); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return g.pool.WriteReport()
}

func table1(w io.Writer) {
	fmt.Fprintln(w, "=== Table 1: CPU functional unit latencies (cycles) ===")
	rows := []struct {
		name string
		op   isa.Op
	}{
		{"Integer ALU", isa.ADD},
		{"Integer Multiply", isa.MUL},
		{"Integer Divide", isa.DIV},
		{"Branch", isa.BEQ},
		{"Store", isa.SW},
		{"SP Add/Sub", isa.FADDS},
		{"SP Multiply", isa.FMULS},
		{"SP Divide", isa.FDIVS},
		{"DP Add/Sub", isa.FADDD},
		{"DP Multiply", isa.FMULD},
		{"DP Divide", isa.FDIVD},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %2d\n", r.name, cpu.Latency(r.op))
	}
	fmt.Fprintf(w, "  %-18s %s\n", "Load", "1 or 3 (memory system; shared-L1 pays 3 under MXS)")
	fmt.Fprintln(w)
}

func table2(w io.Writer) {
	fmt.Fprintln(w, "=== Table 2: contention-free access latencies (cycles, incl. 1-cycle L1 lookup) ===")
	fmt.Fprintf(w, "  %-11s %6s %6s %6s %6s\n", "arch", "L1", "L2", "mem", "c2c")
	cfg := memsys.DefaultConfig()
	// load times one read of addr by cpu at cycle now.
	load := func(s memsys.System, now uint64, cpu int, addr uint32) uint64 {
		r, _ := s.Access(now, cpu, addr, false)
		return cyc.Lat(r.Done, now)
	}
	row := func(s memsys.System, l1, l2, mem uint64, c2c string) {
		fmt.Fprintf(w, "  %-11s %6d %6d %6d %6s\n", s.Name(), l1, l2, mem, c2c)
	}

	// shared-L1 (simple CPU configuration: 1-cycle hit): cold miss to
	// memory, hit, then an L2 hit once three conflicting fills evict the
	// line from L1.
	s1 := memsys.NewSharedL1(cfg)
	mem, l1 := load(s1, 0, 0, 0x1000), load(s1, 1000, 0, 0x1000)
	for i, a := range []uint32{0x1000 + 32<<10, 0x1000 + 64<<10, 0x1000 + 96<<10} {
		load(s1, uint64(2000+200*i), 0, a)
	}
	row(s1, l1, load(s1, 10000, 0, 0x1000), mem, "-")

	// shared-L2: the other CPU's read is an L2 hit.
	s2 := memsys.NewSharedL2(cfg)
	mem, l1 = load(s2, 0, 0, 0x1000), load(s2, 1000, 0, 0x1000)
	row(s2, l1, load(s2, 2000, 1, 0x1000), mem, "-")

	// shared-mem: the other CPU's read finds a remote copy
	// (cache-to-cache); an L2 hit once filling CPU1's L1 set evicts it.
	sm := memsys.NewSharedMem(cfg)
	mem, l1 = load(sm, 0, 0, 0x1000), load(sm, 1000, 0, 0x1000)
	c2c := load(sm, 2000, 1, 0x1000)
	for i, a := range []uint32{0x1000 + 8<<10, 0x1000 + 16<<10} {
		load(sm, uint64(3000+200*i), 1, a)
	}
	row(sm, l1, load(sm, 10000, 1, 0x1000), mem, fmt.Sprint(c2c))
	fmt.Fprintln(w)
}

// runTag turns a figure name into a filename-safe fragment
// ("Figure 4: Eqntott" -> "figure-4-eqntott").
func runTag(name string) string {
	return strings.Join(strings.FieldsFunc(strings.ToLower(name), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	}), "-")
}

// printFigure renders one figure from its per-architecture results:
// sink files and metrics summaries first (in architecture order), then
// the breakdown table, chart and any accounting violations, and under
// MXS the IPC loss breakdown. A failed run or sink is an error.
func (g *grid) printFigure(spec figureSpec) error {
	runs := map[core.Arch]*core.RunResult{}
	var ipcRows []stats.IPCRow
	for i, a := range core.Arches() {
		res, err := g.result(spec.jobIdx[i])
		if err != nil {
			return err
		}
		if res.Metrics != nil {
			samples := res.Metrics.Samples()
			var peak float64
			for _, smp := range samples {
				peak = max(peak, smp.IPC)
			}
			fmt.Fprintf(g.w, "  [metrics] %s: %d samples, peak interval IPC %.3f\n", a, len(samples), peak)
		}
		runs[a] = res
		ipcRows = append(ipcRows, stats.IPCBreakdown(res))
	}
	fig := stats.BuildFigure(spec.Title, spec.App, spec.Model, runs)
	fmt.Fprint(g.w, fig.String())
	fmt.Fprint(g.w, fig.Chart())
	if n := fig.AccountingViolations(); n > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %s: %d stall-accounting violation(s) in this figure\n", spec.Title, n)
	}
	fmt.Fprintln(g.w)
	if spec.Model != core.ModelMXS {
		return nil
	}
	fmt.Fprintln(g.w, "IPC loss breakdown (ideal per-CPU IPC = 2):")
	for _, r := range ipcRows {
		fmt.Fprintf(g.w, "  %-11s IPC=%.3f  lossI=%.3f  lossD=%.3f  lossPipe=%.3f\n",
			r.Arch, r.IPC, r.LossI, r.LossD, r.LossPipe)
	}
	fmt.Fprintln(g.w)
	return nil
}
