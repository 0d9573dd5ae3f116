// Command sweep explores the design space around the paper's
// configuration: it varies one memory-system parameter across a list of
// values and reports cycles, speedup and the key miss rates for each
// point. This is the style of study the authors' earlier work ("Exploring
// the Design Space for a Shared-Cache Multiprocessor", ISCA '94) ran,
// applied to this simulator.
//
// Sweep points are independent simulations, so they are dispatched
// through the internal/runner pool: -jobs shards them across cores
// (the printed table is identical for any worker count) and -cache-dir
// memoizes each point, so re-sweeping with an extended value list only
// simulates the new points.
//
//	sweep -workload mp3d -arch shared-l1 -param l2assoc -values 1,2,4,8
//	sweep -workload ear -arch shared-l1 -param sharedl1hit -values 1,2,3,5
//	sweep -workload ocean -arch shared-l2 -param sharedl2occ -values 1,2,4,8
//	sweep -workload eqntott -arch shared-mem -param c2clat -values 50,60,80,120 -jobs 4
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/cli"
	"cmpsim/internal/core"
	"cmpsim/internal/runner"
)

// parseValues parses the -values list of parameter name. A value its
// field cannot hold is an error, not a sweep point that runs one value
// and prints another.
func parseValues(name, values string) ([]uint64, error) {
	var points []uint64
	for _, vs := range strings.Split(values, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(vs), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-param %s: %w", name, err)
		}
		if v > benchfig.Knobs[name].Max {
			return nil, fmt.Errorf("-param %s: value %d does not fit its field (at most %d)", name, v, benchfig.Knobs[name].Max)
		}
		points = append(points, v)
	}
	return points, nil
}

func main() {
	fs := flag.CommandLine
	wlName := cli.WorkloadFlag(fs, "ear")
	arch := cli.ArchFlag(fs, "shared-l1", false)
	model := cli.ModelFlag(fs)
	param := flag.String("param", "", "parameter to sweep (see -params)")
	values := flag.String("values", "", "comma-separated values")
	list := flag.Bool("params", false, "list sweepable parameters")
	poolFlags := cli.PoolFlags(fs)
	poolFlags.RunReportFlags(fs)
	flag.Parse()

	if *list {
		names := make([]string, 0, len(benchfig.Knobs))
		for name := range benchfig.Knobs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-14s %s\n", name, benchfig.Knobs[name].Help)
		}
		return
	}
	_, ok := benchfig.Knobs[*param]
	if !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown -param %q (try -params)\n", *param)
		os.Exit(2)
	}
	if *param == "sharedl1hit" && *model == core.ModelMXS {
		// core.NewMachine applies Config.MXS over the swept value, so every
		// point would run at 3 cycles and print another value.
		fmt.Fprintln(os.Stderr, "sweep: -param sharedl1hit does not vary under -model mxs: the MXS model fixes the shared-L1 hit time at 3 cycles (Config.MXS, Section 4.4)")
		os.Exit(2)
	}
	if *values == "" {
		fmt.Fprintln(os.Stderr, "sweep: -values is required")
		os.Exit(2)
	}

	points, err := parseValues(*param, *values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	var sweepJobs []runner.Job
	for _, v := range points {
		sweepJobs = append(sweepJobs, poolFlags.Job(*wlName, false, *arch, *model, benchfig.Sweep{Knob: *param}.Config(v),
			fmt.Sprintf("%s-%s-%s-%d", *wlName, *arch, *param, v)))
	}

	pool, err := poolFlags.Open()
	if err != nil {
		cli.Fatal(err)
	}
	results := pool.Run(sweepJobs)

	fmt.Printf("sweeping %s on %s/%s (%s model)\n", *param, *wlName, *arch, *model)
	fmt.Printf("%12s %12s %8s %8s %8s %8s %8s\n", *param, "cycles", "speedup", "L1R%", "L1I%", "L2R%", "L2I%")
	var base float64
	for i, r := range results {
		// Any failed point is a broken sweep: report it and exit non-zero
		// so CI cannot mistake a partial table for a finished study.
		if r.Err != nil {
			cli.Fatal(r.Err)
		}
		res := r.Res
		if base == 0 {
			base = float64(res.Cycles)
		}
		rep := res.MemReport
		fmt.Printf("%12d %12d %7.2fx %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
			points[i], res.Cycles, base/float64(res.Cycles),
			100*rep.L1D.ReplRate(), 100*rep.L1D.InvRate(),
			100*rep.L2.ReplRate(), 100*rep.L2.InvRate())
	}
	if err := poolFlags.WriteReport(); err != nil {
		cli.Fatal(err)
	}
}
