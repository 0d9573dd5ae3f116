// Command cmpsim runs one workload on one or all of the three
// multiprocessor-microprocessor architectures and prints the paper-style
// execution-time breakdown and miss-rate table. -set changes a
// memory-system knob (internal/benchfig's Knobs); a knob given several
// values is swept, and each architecture prints one row per value:
// cycles, speedup over the first value and the key miss rates.
//
// The runs (architectures × swept values) are independent, so they
// dispatch through the internal/runner pool: -jobs shards them across
// cores and -cache-dir memoizes results; output is identical for any
// worker count. The flags it shares with cmd/experiments live in
// internal/cli.
//
// Usage:
//
//	cmpsim -workload eqntott                      # all three architectures, Mipsy
//	cmpsim -workload mp3d -arch shared-l1         # one architecture
//	cmpsim -workload ear -model mxs               # detailed dynamic superscalar model
//	cmpsim -workload mp3d -set l2assoc=4          # the Section 4.1 L2 ablation
//	cmpsim -workload fft -set cpus=1,2,4,8        # processor-count sweep, every architecture
//	cmpsim -set help                              # list the knobs
//	cmpsim -workload eqntott -quick -jobs 4       # parallel smoke run
//	cmpsim -workload mp3d -quick -prof            # hot functions, PCs, line heatmap
//	cmpsim -workload mp3d -quick -prof-out p.json # one profile per architecture, for simprof
//	cmpsim -list                                  # list workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cmpsim/internal/check"
	"cmpsim/internal/cli"
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
	"cmpsim/internal/runner"
	"cmpsim/internal/stats"
	"cmpsim/internal/workload"
)

// printCoherence prints the coherence-protocol counters of the
// architectures that have one (bus snooping for shared-mem, the L1
// sharing directory for shared-L2). These feed the Section 3
// discussion of coherence traffic and are otherwise invisible in the
// figure-style breakdowns.
func printCoherence(rep *memsys.Report) {
	if sn := rep.Snoop; sn != nil {
		fmt.Printf("            snoop: rd=%d wr=%d upg=%d inv=%d c2c=%d\n",
			sn.ReadMissesSnooped, sn.WriteMissesSnooped, sn.Upgrades,
			sn.InvalidationsSent, sn.CacheToCache)
	}
	if d := rep.Dir; d != nil {
		fmt.Printf("            dir: inv=%d inclusion-evicts=%d\n",
			d.Invalidations, d.InclusionEvicts)
	}
}

func main() {
	fs := flag.CommandLine
	wlName := cli.WorkloadFlag(fs)
	archFlag := cli.ArchFlag(fs)
	model := cli.ModelFlag(fs)
	quick := cli.QuickFlag(fs)
	set := cli.SetFlag(fs)
	poolFlags := cli.PoolFlags(fs)
	inst := cli.InstrumentFlags(fs)
	var (
		regions  = flag.Bool("regions", false, "profile data accesses by 256KB physical region")
		list     = flag.Bool("list", false, "list available workloads")
		verbose  = flag.Bool("v", false, "also print raw cycle counts and IPC")
		profFlag = flag.Bool("prof", false, "collect a guest cycle-attribution profile and print hot functions/PCs and the line-sharing heatmap")
		sanitize = flag.Bool("sanitize", false, "validate coherence/cycle invariants on every transaction (panics with an event trail on violation)")
	)
	var profTop int
	cli.CountVar(fs, &profTop, "prof-top", 15, 1, "rows per profile report table")
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			w, _ := workload.New(n)
			fmt.Printf("%-10s %s\n", n, w.Description())
		}
		return
	}
	if set.Help {
		cli.WriteKnobs(os.Stdout)
		return
	}
	if *wlName == "" {
		fmt.Fprintln(os.Stderr, "cmpsim: -workload is required (try -list)")
		os.Exit(2)
	}
	for _, err := range []error{cli.CheckQuick(*wlName, *quick), set.CheckModel(*model)} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cmpsim:", err)
			os.Exit(2)
		}
	}

	arches := []core.Arch{*archFlag}
	if *archFlag == "all" {
		arches = core.Arches()
	}
	points := set.Points()

	pool, err := poolFlags.Open()
	if err != nil {
		cli.Fatal(err)
	}

	// One job per architecture and point, each with its own tracer,
	// profile and checker instances so parallel runs share nothing. A
	// job's label heads its lines; with several jobs, its tag is spliced
	// into its sink files.
	n := len(arches) * len(points)
	jobs := make([]runner.Job, n)
	labels := make([]string, n)
	tags := make([]string, n)
	rings := make([]*obsv.Ring, n)
	profs := make([]*regionProfile, n)
	checkers := make([]*check.Checker, n)
	for i := range jobs {
		a, cfg := arches[i/len(points)], points[i%len(points)]
		labels[i] = string(a)
		if set.Knob != "" {
			labels[i] += fmt.Sprintf(" %s%d", set.Knob, set.Values[i%len(points)])
		}
		run := strings.ReplaceAll(labels[i], " ", "-")
		if n > 1 {
			tags[i] = run
		}
		var tracers []obsv.Tracer
		if *regions {
			profs[i] = newRegionProfile()
			tracers = append(tracers, profs[i])
		}
		if rings[i] = inst.Attach(&cfg); rings[i] != nil {
			tracers = append(tracers, rings[i])
		}
		if *sanitize {
			// The checker doubles as a tracer so its violation reports
			// carry the events leading up to the break.
			checkers[i] = check.New(64)
			tracers = append(tracers, checkers[i])
			cfg.Check = checkers[i]
		}
		cfg.Trace = obsv.Tee(tracers...)
		if *profFlag && cfg.Prof == nil {
			cfg.Prof = prof.New(cfg.NumCPUs, cfg.LineBytes)
		}
		jobs[i] = poolFlags.Job(*wlName, *quick, a, *model, cfg, *wlName+"-"+run)
	}

	results := pool.Run(jobs)

	for i, r := range results {
		if r.Err != nil {
			cli.Fatal(r.Err)
		}
		res := r.Res
		if chk := checkers[i]; chk != nil {
			// Reaching here means every check passed (a violation panics).
			fmt.Printf("%-11s sanitize: %d checks, 0 violations\n", labels[i], chk.Checks())
		}
		if *verbose {
			fmt.Printf("%-11s cycles=%d insts=%d IPC=%.3f\n", labels[i], res.Cycles, res.Instructions(), res.IPC())
			printCoherence(&res.MemReport)
		}
		if prof := profs[i]; prof != nil {
			fmt.Printf("--- %s: data accesses by 256KB region (top 12 by total latency) ---\n", labels[i])
			prof.print(os.Stdout, 12)
		}
		if err := inst.WriteTraces(rings[i], tags[i]); err != nil {
			cli.Fatal(err)
		}
		if res.Metrics != nil {
			fmt.Printf("--- %s: interval metrics ---\n%s", labels[i], res.Metrics.String())
		}
		if *profFlag {
			res.Profile.WriteReport(os.Stdout, profTop)
		}
		if err := inst.WriteProfile(res.Profile, tags[i]); err != nil {
			cli.Fatal(err)
		}
	}

	if set.Knob != "" {
		for k, a := range arches {
			printSweep(set, *wlName, a, *model, results[k*len(points):][:len(points)])
		}
		return
	}
	runs := map[core.Arch]*core.RunResult{}
	for i, a := range arches {
		runs[a] = results[i].Res
	}
	if _, ok := runs[core.SharedMem]; !ok {
		// No baseline for normalization; print raw numbers in run order.
		for _, a := range arches {
			b := stats.FromRun(runs[a])
			fmt.Printf("%-11s total=%.0f cpu=%.0f istall=%.0f dstall=%.0f\n",
				a, b.Total, b.CPU, b.IStall, b.MemStall())
		}
		return
	}
	fig := stats.BuildFigure("Result", *wlName, *model, runs)
	fmt.Print(fig.String())
	fmt.Print(fig.Chart())

	if *model == core.ModelMXS {
		fmt.Println("\nIPC breakdown (Figure 11 style):")
		for _, a := range arches {
			row := stats.IPCBreakdown(runs[a])
			fmt.Printf("%-11s IPC=%.3f lossI=%.3f lossD=%.3f lossPipe=%.3f\n",
				a, row.IPC, row.LossI, row.LossD, row.LossPipe)
		}
	}
}

// printSweep prints one architecture's sweep: per swept value the
// cycles, the speedup over the first value, and the L1 D-cache and L2
// replacement and invalidation miss rates.
func printSweep(set *cli.Set, wl string, arch core.Arch, model core.CPUModel, results []runner.Result) {
	fmt.Printf("sweeping %s on %s/%s (%s model)\n", set.Knob, wl, arch, model)
	fmt.Printf("%12s %12s %8s %8s %8s %8s %8s\n", set.Knob, "cycles", "speedup", "L1R%", "L1I%", "L2R%", "L2I%")
	base := float64(results[0].Res.Cycles)
	for i, r := range results {
		rep := &r.Res.MemReport
		fmt.Printf("%12d %12d %7.2fx %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
			set.Values[i], r.Res.Cycles, base/float64(r.Res.Cycles),
			100*rep.L1D.ReplRate(), 100*rep.L1D.InvRate(),
			100*rep.L2.ReplRate(), 100*rep.L2.InvRate())
	}
}
