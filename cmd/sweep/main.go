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
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"cmpsim/internal/cli"
	"cmpsim/internal/memsys"
	"cmpsim/internal/runner"
)

// The largest value each kind of Config field holds.
const (
	maxU32 = math.MaxUint32
	maxInt = math.MaxInt
	maxU64 = math.MaxUint64
)

// params maps sweepable parameter names to setters on the config and
// the largest value the field they set can hold.
var params = map[string]struct {
	help string
	max  uint64
	set  func(*memsys.Config, uint64)
}{
	"l1dsize":      {"private L1 D-cache bytes", maxU32, func(c *memsys.Config, v uint64) { c.L1DSize = uint32(v) }},
	"l1isize":      {"private L1 I-cache bytes", maxU32, func(c *memsys.Config, v uint64) { c.L1ISize = uint32(v) }},
	"sharedl1size": {"shared L1 bytes", maxU32, func(c *memsys.Config, v uint64) { c.SharedL1Size = uint32(v) }},
	"sharedl1hit": {"shared L1 hit latency (cycles); >1 also enables bank contention", maxU64, func(c *memsys.Config, v uint64) {
		c.SharedL1HitLat = v
		c.SharedL1BankContention = v > 1
	}},
	"sharedl1banks": {"shared L1 bank count", maxU32, func(c *memsys.Config, v uint64) {
		c.SharedL1Banks = uint32(v)
		c.SharedL1BankContention = true
	}},
	"l2assoc":     {"L2 associativity", maxU32, func(c *memsys.Config, v uint64) { c.L2Assoc = uint32(v) }},
	"l2lat":       {"uniprocessor-style L2 latency", maxU64, func(c *memsys.Config, v uint64) { c.L2Lat = v }},
	"sharedl2lat": {"crossbar L2 latency", maxU64, func(c *memsys.Config, v uint64) { c.SharedL2Lat = v }},
	"sharedl2occ": {"crossbar L2 line occupancy (datapath width)", maxU64, func(c *memsys.Config, v uint64) { c.SharedL2Occ = v }},
	"memlat":      {"main memory latency", maxU64, func(c *memsys.Config, v uint64) { c.MemLat = v }},
	"c2clat":      {"cache-to-cache transfer latency", maxU64, func(c *memsys.Config, v uint64) { c.C2CLat = v }},
	"mshrs":       {"outstanding misses per cache port", maxInt, func(c *memsys.Config, v uint64) { c.MSHRs = int(v) }},
	"wbuf":        {"write buffer depth", maxInt, func(c *memsys.Config, v uint64) { c.WriteBufDepth = int(v) }},
	"privl2size":  {"private L2 bytes per CPU (shared-mem)", maxU32, func(c *memsys.Config, v uint64) { c.PrivL2Size = uint32(v) }},
	"cpus": {"processor count — the CMP scaling axis (workloads re-decompose; ocean needs 4)", maxInt,
		func(c *memsys.Config, v uint64) { c.NumCPUs = int(v) }},
}

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
		if v > params[name].max {
			return nil, fmt.Errorf("-param %s: value %d does not fit its field (at most %d)", name, v, params[name].max)
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
		names := make([]string, 0, len(params))
		for name := range params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-14s %s\n", name, params[name].help)
		}
		return
	}
	p, ok := params[*param]
	if !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown -param %q (try -params)\n", *param)
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
		cfg := memsys.DefaultConfig()
		p.set(&cfg, v)
		sweepJobs = append(sweepJobs, poolFlags.Job(*wlName, false, *arch, *model, cfg,
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
