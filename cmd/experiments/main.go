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
//	experiments                  # full paper-scale run (a few minutes)
//	experiments -quick           # reduced data sets for a fast smoke run
//	experiments -skip-mxs        # only the Mipsy figures
//	experiments -jobs 4          # shard runs across 4 workers
//	experiments -cache-dir .sim  # reuse cached results across invocations
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

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

// figureSpec is one printed figure: a workload run on all three
// architectures under one CPU model. jobIdx are the positions of the
// per-architecture jobs (in core.Arches() order) in the dispatched
// job slice.
type figureSpec struct {
	name   string
	wl     string
	model  core.CPUModel
	jobIdx [3]int
}

// grid accumulates the full experiment job list plus each job's trace
// ring for the sink files.
type grid struct {
	pool  *cli.Pool
	inst  *cli.Instruments
	quick *bool
	jobs  []runner.Job
	rings []*obsv.Ring
}

// addJob appends one run to the grid, with its own instrument
// attachments, and returns its job index.
func (g *grid) addJob(wl string, arch core.Arch, model core.CPUModel, cfg memsys.Config, tag string) int {
	g.rings = append(g.rings, g.inst.Attach(&cfg))
	g.jobs = append(g.jobs, g.pool.Job(wl, *g.quick, arch, model, cfg, tag))
	return len(g.jobs) - 1
}

// addFigure appends one workload's three-architecture runs.
func (g *grid) addFigure(name, wl string, model core.CPUModel) figureSpec {
	spec := figureSpec{name: name, wl: wl, model: model}
	for i, a := range core.Arches() {
		spec.jobIdx[i] = g.addJob(wl, a, model, memsys.DefaultConfig(), runTag(name)+"-"+string(a))
	}
	return spec
}

// result returns job idx's run after writing its trace and profile
// files; a failed run or sink ends the campaign with a non-zero exit.
func (g *grid) result(results []runner.Result, idx int) *core.RunResult {
	r := results[idx]
	if r.Err != nil {
		cli.Fatal(r.Err)
	}
	tag := g.jobs[idx].Tag
	if err := g.inst.WriteTraces(g.rings[idx], tag); err != nil {
		cli.Fatal(err)
	}
	if err := g.inst.WriteProfile(r.Res.Profile, tag); err != nil {
		cli.Fatal(err)
	}
	return r.Res
}

func main() {
	fs := flag.CommandLine
	g := grid{quick: cli.QuickFlag(fs), pool: cli.PoolFlags(fs), inst: cli.InstrumentFlags(fs)}
	g.pool.RunReportFlags(fs)
	skipMXS := flag.Bool("skip-mxs", false, "skip the detailed-CPU (Figure 11) runs")
	flag.Parse()

	start := time.Now()
	table1()
	table2()

	pool, err := g.pool.Open()
	if err != nil {
		cli.Fatal(err)
	}

	// Build the whole grid up front — Figures 4-10, the Section 4.1
	// ablation, and Figure 11 — then dispatch it through one pool run so
	// every independent cell can execute concurrently. Printing happens
	// afterwards in spec order, which keeps the output byte-identical to
	// a serial run.
	figures := []struct {
		name string
		wl   string
	}{
		{"Figure 4: Eqntott", "eqntott"},
		{"Figure 5: MP3D", "mp3d"},
		{"Figure 6: Ocean", "ocean"},
		{"Figure 7: Volpack", "volpack"},
		{"Figure 8: Ear", "ear"},
		{"Figure 9: FFT", "fft"},
		{"Figure 10: Multiprogramming + OS", "pmake"},
	}
	var mipsySpecs []figureSpec
	for _, f := range figures {
		mipsySpecs = append(mipsySpecs, g.addFigure(f.name, f.wl, core.ModelMipsy))
	}

	ablationAssocs := []uint32{1, 4}
	var ablationIdx []int
	for _, assoc := range ablationAssocs {
		cfg := memsys.DefaultConfig()
		cfg.L2Assoc = assoc
		ablationIdx = append(ablationIdx, g.addJob("mp3d", core.SharedL1, core.ModelMipsy,
			cfg, fmt.Sprintf("ablation-mp3d-l2assoc-%d", assoc)))
	}

	var mxsSpecs []figureSpec
	if !*skipMXS {
		for _, f := range []struct {
			name string
			wl   string
		}{
			{"Figure 11a: Multiprogramming (MXS)", "pmake"},
			{"Figure 11b: Eqntott (MXS)", "eqntott"},
			{"Figure 11c: Ear (MXS)", "ear"},
		} {
			mxsSpecs = append(mxsSpecs, g.addFigure(f.name, f.wl, core.ModelMXS))
		}
	}

	results := pool.Run(g.jobs)

	for _, spec := range mipsySpecs {
		g.printFigure(spec, results)
	}

	fmt.Println("=== Section 4.1 ablation: MP3D shared-L1 with L2 associativity 1 vs 4 ===")
	for i, assoc := range ablationAssocs {
		res := g.result(results, ablationIdx[i])
		fmt.Printf("  L2 %d-way: cycles=%-10d L2 miss rate=%5.1f%%  L1R=%5.1f%%\n",
			assoc, res.Cycles, 100*res.MemReport.L2.MissRate(), 100*res.MemReport.L1D.ReplRate())
	}
	fmt.Println()

	if !*skipMXS {
		fmt.Println("=== Figure 11: dynamic superscalar (MXS) results ===")
		for _, spec := range mxsSpecs {
			rows := g.printFigure(spec, results)
			fmt.Println("IPC loss breakdown (ideal per-CPU IPC = 2):")
			for _, r := range rows {
				fmt.Printf("  %-11s IPC=%.3f  lossI=%.3f  lossD=%.3f  lossPipe=%.3f\n",
					r.Arch, r.IPC, r.LossI, r.LossD, r.LossPipe)
			}
			fmt.Println()
		}
	}

	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	if err := g.pool.WriteReport(); err != nil {
		cli.Fatal(err)
	}
}

func table1() {
	fmt.Println("=== Table 1: CPU functional unit latencies (cycles) ===")
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
		fmt.Printf("  %-18s %2d\n", r.name, cpu.Latency(r.op))
	}
	fmt.Printf("  %-18s %s\n", "Load", "1 or 3 (memory system; shared-L1 pays 3 under MXS)")
	fmt.Println()
}

func table2() {
	fmt.Println("=== Table 2: contention-free access latencies (cycles, incl. 1-cycle L1 lookup) ===")
	cfg := memsys.DefaultConfig()
	type probeResult struct {
		arch        string
		l1, l2, mem uint64
		c2c         uint64
	}
	results := []probeResult{}

	// shared-L1 (simple CPU configuration: 1-cycle hit).
	s1 := memsys.NewSharedL1(cfg)
	r, _ := s1.Access(0, 0, 0x1000, false) // cold -> memory
	memLat := r.Done
	r, _ = s1.Access(1000, 0, 0x1000, false) // hit
	l1Lat := cyc.Lat(r.Done, 1000)
	// L2 hit: evict from L1 via three conflicting fills.
	for i, a := range []uint32{0x1000 + 32<<10, 0x1000 + 64<<10, 0x1000 + 96<<10} {
		s1.Access(uint64(2000+200*i), 0, a, false)
	}
	r, _ = s1.Access(10000, 0, 0x1000, false)
	results = append(results, probeResult{"shared-l1", l1Lat, cyc.Lat(r.Done, 10000), memLat, 0})

	s2 := memsys.NewSharedL2(cfg)
	r, _ = s2.Access(0, 0, 0x1000, false)
	memLat = r.Done
	r, _ = s2.Access(1000, 0, 0x1000, false)
	l1Lat = cyc.Lat(r.Done, 1000)
	r, _ = s2.Access(2000, 1, 0x1000, false) // other CPU: L2 hit
	results = append(results, probeResult{"shared-l2", l1Lat, cyc.Lat(r.Done, 2000), memLat, 0})

	sm := memsys.NewSharedMem(cfg)
	r, _ = sm.Access(0, 0, 0x1000, false)
	memLat = r.Done
	r, _ = sm.Access(1000, 0, 0x1000, false)
	l1Lat = cyc.Lat(r.Done, 1000)
	r, _ = sm.Access(2000, 1, 0x1000, false) // remote copy: cache-to-cache
	c2c := cyc.Lat(r.Done, 2000)
	// L2 hit: evict CPU1's L1 copy by filling its set, then re-read.
	for i, a := range []uint32{0x1000 + 8<<10, 0x1000 + 16<<10} {
		sm.Access(uint64(3000+200*i), 1, a, false)
	}
	r, _ = sm.Access(10000, 1, 0x1000, false)
	results = append(results, probeResult{"shared-mem", l1Lat, cyc.Lat(r.Done, 10000), memLat, c2c})

	fmt.Printf("  %-11s %6s %6s %6s %6s\n", "arch", "L1", "L2", "mem", "c2c")
	for _, p := range results {
		c2cs := "-"
		if p.c2c > 0 {
			c2cs = fmt.Sprint(p.c2c)
		}
		fmt.Printf("  %-11s %6d %6d %6d %6s\n", p.arch, p.l1, p.l2, p.mem, c2cs)
	}
	fmt.Println()
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
// the breakdown table, chart and any accounting violations. A failed
// run aborts with a non-zero exit.
func (g *grid) printFigure(spec figureSpec, results []runner.Result) []stats.IPCRow {
	runs := map[core.Arch]*core.RunResult{}
	var ipcRows []stats.IPCRow
	for i, a := range core.Arches() {
		res := g.result(results, spec.jobIdx[i])
		if res.Metrics != nil {
			samples := res.Metrics.Samples()
			var peak float64
			for _, smp := range samples {
				if smp.IPC > peak {
					peak = smp.IPC
				}
			}
			fmt.Printf("  [metrics] %s: %d samples, peak interval IPC %.3f\n", a, len(samples), peak)
		}
		runs[a] = res
		ipcRows = append(ipcRows, stats.IPCBreakdown(res))
	}
	fig := stats.BuildFigure(spec.name, spec.wl, spec.model, runs)
	fmt.Print(fig.String())
	fmt.Print(fig.Chart())
	if n := fig.AccountingViolations(); n > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %s: %d stall-accounting violation(s) in this figure\n", spec.name, n)
	}
	fmt.Println()
	return ipcRows
}
