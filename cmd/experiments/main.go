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
	"path/filepath"
	"strings"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/cyc"
	"cmpsim/internal/isa"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
	"cmpsim/internal/runner"
	"cmpsim/internal/stats"
	"cmpsim/internal/telemetry"
	"cmpsim/internal/workload"
)

// obsvOpts carries the observability flags; when tracing or sampling is
// on, every (figure, architecture) run gets its own ring and its own
// output file, so parallel runs can never interleave events.
type obsvOpts struct {
	chrome   string
	jsonl    string
	bufSize  int
	interval uint64
	profOut  string
}

var obsvFlags obsvOpts

// noSkipFlag disables quiescence skipping in every dispatched run; the
// skip regression suite uses it to prove output-identical behavior.
var noSkipFlag bool

// simJobsFlag shards each dispatched simulation's CPUs across host
// goroutines; output is identical for any value.
var simJobsFlag int

// fatalf is the single exit path for run and sink failures: nothing is
// printed-and-continued, so CI sees a non-zero exit on any broken cell.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}

// figureSpec is one printed figure: a workload run on all three
// architectures under one CPU model. jobIdx are the positions of the
// per-architecture jobs (in core.Arches() order) in the dispatched
// job slice.
type figureSpec struct {
	name   string
	model  core.CPUModel
	jobIdx [3]int
}

// grid accumulates the full experiment job list plus the per-job rings
// that collect traces for the sink files.
type grid struct {
	jobs  []runner.Job
	rings []*obsv.Ring
}

// addJob appends one run to the grid, wiring per-job observability
// attachments, and returns its job index.
func (g *grid) addJob(wlName string, quick bool, arch core.Arch, model core.CPUModel, cfg memsys.Config, tag string) int {
	variant := "full"
	if quick {
		variant = "quick"
	}
	cfg.NoSkip = noSkipFlag
	cfg.SimJobs = simJobsFlag
	job := runner.Job{
		Workload: func() (workload.Workload, error) {
			if quick {
				return workload.NewQuick(wlName)
			}
			return workload.New(wlName)
		},
		WorkloadKey: wlName + "/" + variant,
		Arch:        arch,
		Model:       model,
		Cfg:         cfg,
		Tag:         tag,
	}
	var ring *obsv.Ring
	if obsvFlags.chrome != "" || obsvFlags.jsonl != "" {
		ring = obsv.NewRing(obsvFlags.bufSize)
		job.Cfg.Trace = ring
	}
	if obsvFlags.interval > 0 {
		job.Cfg.Metrics = obsv.NewMetrics(obsvFlags.interval)
	}
	if obsvFlags.profOut != "" {
		job.Cfg.Prof = prof.New(job.Cfg.NumCPUs, job.Cfg.LineBytes)
	}
	g.jobs = append(g.jobs, job)
	g.rings = append(g.rings, ring)
	return len(g.jobs) - 1
}

// addFigure appends one workload's three-architecture runs.
func (g *grid) addFigure(name, wlName string, quick bool, model core.CPUModel) figureSpec {
	spec := figureSpec{name: name, model: model}
	for i, a := range core.Arches() {
		spec.jobIdx[i] = g.addJob(wlName, quick, a, model, memsys.DefaultConfig(),
			runTag(name)+"-"+string(a))
	}
	return spec
}

func main() {
	quick := flag.Bool("quick", false, "reduced data sets")
	skipMXS := flag.Bool("skip-mxs", false, "skip the detailed-CPU (Figure 11) runs")
	jobs := flag.Int("jobs", 0, "max concurrent simulation runs (0 = GOMAXPROCS); output is identical for any value")
	cacheDir := flag.String("cache-dir", "", "memoize run results as JSON under this directory (\"\" = off)")
	flag.StringVar(&obsvFlags.chrome, "trace", "", "write per-run Chrome traces; the figure and architecture are spliced into this filename")
	flag.StringVar(&obsvFlags.jsonl, "trace-out", "", "write per-run JSONL traces (cmd/tracestats input)")
	flag.IntVar(&obsvFlags.bufSize, "trace-buf", 1<<20, "trace ring-buffer capacity in events")
	flag.Uint64Var(&obsvFlags.interval, "metrics-interval", 0, "sample interval metrics every N cycles (0 = off)")
	flag.StringVar(&obsvFlags.profOut, "prof-out", "", "write per-run cycle-attribution profiles as JSON (cmd/simprof -in); the run tag is spliced into this filename")
	progress := flag.Bool("progress", false, "print per-job completion lines (wall time, cache status) on stderr; stdout is unaffected")
	flag.BoolVar(&noSkipFlag, "no-skip", false, "tick every CPU every cycle, one instruction per tick: no quiescence skipping, no Mipsy run-ahead (slower; output is identical)")
	flag.IntVar(&simJobsFlag, "sim-jobs", 1, "shard each simulation's CPUs across up to N host goroutines (1 = serial; output is identical for any value; composes with -jobs under a host-core cap)")
	runReport := flag.Bool("run-report", false, "print a deterministic end-of-campaign run report to stderr")
	runReportOut := flag.String("run-report-out", "", "write the end-of-campaign run report as JSON to this file")
	flag.Parse()

	start := time.Now()
	table1()
	table2()

	pool := &runner.Pool{Workers: runner.CapWorkers(*jobs, simJobsFlag)}
	if *progress {
		pool.Progress = os.Stderr
	}
	if *runReport || *runReportOut != "" {
		set := telemetry.New()
		pool.Telem = set.Runner
		defer func() {
			if err := set.WriteReport(*runReport, *runReportOut); err != nil {
				fatalf("%v", err)
			}
		}()
	}
	if *cacheDir != "" {
		cache, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		pool.Cache = cache
	}

	// Build the whole grid up front — Figures 4-10, the Section 4.1
	// ablation, and Figure 11 — then dispatch it through one pool run so
	// every independent cell can execute concurrently. Printing happens
	// afterwards in spec order, which keeps the output byte-identical to
	// a serial run.
	var g grid
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
		mipsySpecs = append(mipsySpecs, g.addFigure(f.name, f.wl, *quick, core.ModelMipsy))
	}

	ablationAssocs := []uint32{1, 4}
	var ablationIdx []int
	for _, assoc := range ablationAssocs {
		cfg := memsys.DefaultConfig()
		cfg.L2Assoc = assoc
		ablationIdx = append(ablationIdx, g.addJob("mp3d", *quick, core.SharedL1, core.ModelMipsy,
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
			mxsSpecs = append(mxsSpecs, g.addFigure(f.name, f.wl, *quick, core.ModelMXS))
		}
	}

	results := pool.Run(g.jobs)

	for _, spec := range mipsySpecs {
		printFigure(spec, &g, results)
	}

	fmt.Println("=== Section 4.1 ablation: MP3D shared-L1 with L2 associativity 1 vs 4 ===")
	for i, assoc := range ablationAssocs {
		r := results[ablationIdx[i]]
		if r.Err != nil {
			fatalf("%v", r.Err)
		}
		res := r.Res
		fmt.Printf("  L2 %d-way: cycles=%-10d L2 miss rate=%5.1f%%  L1R=%5.1f%%\n",
			assoc, res.Cycles, 100*res.MemReport.L2.MissRate(), 100*res.MemReport.L1D.ReplRate())
		dumpProfile(res.Profile, "mp3d", g.jobs[ablationIdx[i]].Tag)
	}
	fmt.Println()

	if !*skipMXS {
		fmt.Println("=== Figure 11: dynamic superscalar (MXS) results ===")
		for _, spec := range mxsSpecs {
			rows := printFigure(spec, &g, results)
			fmt.Println("IPC loss breakdown (ideal per-CPU IPC = 2):")
			for _, r := range rows {
				fmt.Printf("  %-11s IPC=%.3f  lossI=%.3f  lossD=%.3f  lossPipe=%.3f\n",
					r.Arch, r.IPC, r.LossI, r.LossD, r.LossPipe)
			}
			fmt.Println()
		}
	}

	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
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
	f := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}
	tag := strings.Map(f, name)
	for strings.Contains(tag, "--") {
		tag = strings.ReplaceAll(tag, "--", "-")
	}
	return strings.Trim(tag, "-")
}

// splice inserts tag before path's extension.
func splice(path, tag string) string {
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "." + tag + ext
}

// dumpTrace writes one job's ring to that job's trace files (the job
// tag is spliced into the filename, so no two runs share a sink). Each
// file is created, written and closed here, per run — a sink failure
// is fatal, never printed-and-skipped.
func dumpTrace(ring *obsv.Ring, tag string) {
	events := ring.Events()
	write := func(path string, fn func(*os.File, []obsv.Event) error) {
		f, err := os.Create(path)
		if err == nil {
			err = fn(f, events)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("  [trace] %d events -> %s\n", len(events), path)
	}
	if obsvFlags.chrome != "" {
		write(splice(obsvFlags.chrome, tag), func(f *os.File, evs []obsv.Event) error {
			return obsv.WriteChromeTrace(f, evs)
		})
	}
	if obsvFlags.jsonl != "" {
		write(splice(obsvFlags.jsonl, tag), func(f *os.File, evs []obsv.Event) error {
			return obsv.WriteJSONL(f, evs)
		})
	}
	if ring.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: trace ring dropped %d of %d events (raise -trace-buf)\n",
			ring.Dropped(), ring.Emitted())
	}
}

// dumpProfile writes one job's cycle-attribution profile to that job's
// -prof-out file (tag spliced in). No-op when the run carried no
// profiler.
func dumpProfile(p *prof.Profile, wlName, tag string) {
	if p == nil {
		return
	}
	p.Workload = wlName
	path := splice(obsvFlags.profOut, tag)
	f, err := os.Create(path)
	if err == nil {
		err = p.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatalf("%s: write profile: %v", tag, err)
	}
	fmt.Printf("  [prof] wrote %s\n", path)
}

// printFigure renders one figure from its per-architecture results:
// trace dumps and metrics summaries first (in architecture order),
// then the breakdown table, chart and any accounting violations. A
// failed run aborts with a non-zero exit.
func printFigure(spec figureSpec, g *grid, results []runner.Result) []stats.IPCRow {
	runs := map[core.Arch]*core.RunResult{}
	var ipcRows []stats.IPCRow
	var wlName string
	for i, a := range core.Arches() {
		idx := spec.jobIdx[i]
		r := results[idx]
		if r.Err != nil {
			fatalf("%s on %s: %v", spec.name, a, r.Err)
		}
		res := r.Res
		wlName = strings.SplitN(g.jobs[idx].WorkloadKey, "/", 2)[0]
		if ring := g.rings[idx]; ring != nil {
			dumpTrace(ring, g.jobs[idx].Tag)
		}
		dumpProfile(res.Profile, wlName, g.jobs[idx].Tag)
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
	fig := stats.BuildFigure(spec.name, wlName, spec.model, runs)
	fmt.Print(fig.String())
	fmt.Print(fig.Chart())
	if n := fig.AccountingViolations(); n > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %s: %d stall-accounting violation(s) in this figure\n", spec.name, n)
	}
	fmt.Println()
	return ipcRows
}
