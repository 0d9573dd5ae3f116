// Command cmpsim runs one workload on one or all of the three
// multiprocessor-microprocessor architectures and prints the paper-style
// execution-time breakdown and miss-rate table.
//
// With -arch all (the default) the three architecture runs are
// independent, so they dispatch through the internal/runner pool:
// -jobs shards them across cores and -cache-dir memoizes results;
// output is identical for any worker count. The flags it shares with
// cmd/sweep and cmd/experiments live in internal/cli.
//
// Usage:
//
//	cmpsim -workload eqntott                      # all three architectures, Mipsy
//	cmpsim -workload mp3d -arch shared-l1         # one architecture
//	cmpsim -workload ear -model mxs               # detailed dynamic superscalar model
//	cmpsim -workload mp3d -l2assoc 4              # the Section 4.1 L2 ablation
//	cmpsim -workload eqntott -quick -jobs 4       # parallel smoke run
//	cmpsim -workload mp3d -quick -prof            # hot functions, PCs, line heatmap
//	cmpsim -workload mp3d -quick -prof-out p.json # one profile per architecture, for simprof
//	cmpsim -list                                  # list workloads
package main

import (
	"flag"
	"fmt"
	"os"

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
	wlName := cli.WorkloadFlag(fs, "")
	archFlag := cli.ArchFlag(fs, "all", true)
	model := cli.ModelFlag(fs)
	quick := cli.QuickFlag(fs)
	cpus := cli.CPUsFlag(fs)
	poolFlags := cli.PoolFlags(fs)
	inst := cli.InstrumentFlags(fs)
	var (
		l2assoc  = flag.Uint("l2assoc", 0, "override L2 associativity (0 = paper default)")
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
	if *wlName == "" {
		fmt.Fprintln(os.Stderr, "cmpsim: -workload is required (try -list)")
		os.Exit(2)
	}
	if err := cli.CheckQuick(*wlName, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(2)
	}

	arches := []core.Arch{*archFlag}
	if *archFlag == "all" {
		arches = core.Arches()
	}

	cfg := memsys.DefaultConfig()
	if *l2assoc > 0 {
		cfg.L2Assoc = uint32(*l2assoc)
	}
	if *cpus > 0 {
		cfg.NumCPUs = *cpus
	}

	pool, err := poolFlags.Open()
	if err != nil {
		cli.Fatal(err)
	}

	// One job per architecture, each with its own tracer, profile and
	// checker instances so parallel runs share nothing.
	archJobs := make([]runner.Job, len(arches))
	rings := make([]*obsv.Ring, len(arches))
	profs := make([]*regionProfile, len(arches))
	checkers := make([]*check.Checker, len(arches))
	for i, a := range arches {
		acfg := cfg
		var tracers []obsv.Tracer
		if *regions {
			profs[i] = newRegionProfile()
			tracers = append(tracers, profs[i])
		}
		if rings[i] = inst.Attach(&acfg); rings[i] != nil {
			tracers = append(tracers, rings[i])
		}
		if *sanitize {
			// The checker doubles as a tracer so its violation reports
			// carry the events leading up to the break.
			checkers[i] = check.New(64)
			tracers = append(tracers, checkers[i])
			acfg.Check = checkers[i]
		}
		acfg.Trace = obsv.Tee(tracers...)
		if *profFlag && acfg.Prof == nil {
			acfg.Prof = prof.New(acfg.NumCPUs, acfg.LineBytes)
		}
		archJobs[i] = poolFlags.Job(*wlName, *quick, a, *model, acfg, *wlName+"-"+string(a))
	}

	results := pool.Run(archJobs)

	runs := map[core.Arch]*core.RunResult{}
	for i, a := range arches {
		if err := results[i].Err; err != nil {
			cli.Fatal(err)
		}
		res := results[i].Res
		runs[a] = res
		tag := "" // several architectures: splice each one's name into its sink files
		if len(arches) > 1 {
			tag = string(a)
		}
		if chk := checkers[i]; chk != nil {
			// Reaching here means every check passed (a violation panics).
			fmt.Printf("%-11s sanitize: %d checks, 0 violations\n", a, chk.Checks())
		}
		if *verbose {
			fmt.Printf("%-11s cycles=%d insts=%d IPC=%.3f\n", a, res.Cycles, res.Instructions(), res.IPC())
			printCoherence(&res.MemReport)
		}
		if prof := profs[i]; prof != nil {
			fmt.Printf("--- %s: data accesses by 256KB region (top 12 by total latency) ---\n", a)
			prof.print(os.Stdout, 12)
		}
		if err := inst.WriteTraces(rings[i], tag); err != nil {
			cli.Fatal(err)
		}
		if res.Metrics != nil {
			fmt.Printf("--- %s: interval metrics ---\n%s", a, res.Metrics.String())
		}
		if *profFlag {
			res.Profile.WriteReport(os.Stdout, profTop)
		}
		if err := inst.WriteProfile(res.Profile, tag); err != nil {
			cli.Fatal(err)
		}
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
