// Command simprof runs a workload under the guest-level
// cycle-attribution profiler (internal/prof) and renders where the
// cycles went: hot guest functions and PCs with per-level stall
// columns, and the cache-line sharing heatmap with false-sharing
// candidates flagged.
//
// Like cmd/cmpsim, the per-architecture runs dispatch through the
// internal/runner pool, so -jobs shards them across cores without
// changing a byte of output. Profiled jobs are never cached (the
// profiler is a runtime attachment), so there is no -cache-dir flag.
//
// Usage:
//
//	simprof -workload mp3d -quick                 # all three architectures
//	simprof -workload ear -arch shared-mem        # one architecture
//	simprof -workload mp3d -quick -out prof.json  # also save raw profiles
//	simprof -in prof.shared-mem.json              # re-render a saved profile
//	simprof -workload fft -quick -folded fft.txt  # folded stacks (flamegraphs)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/prof"
	"cmpsim/internal/runner"
	"cmpsim/internal/workload"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simprof:", err)
	os.Exit(1)
}

// splice inserts arch before the extension when several architectures
// run in one invocation ("prof.json" → "prof.shared-mem.json").
func splice(path, arch string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "." + arch + ext
}

// writeFile creates path and hands it to fn, folding the close error
// into fn's.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	var (
		wlName   = flag.String("workload", "", "workload to profile (see cmpsim -list)")
		archStr  = flag.String("arch", "all", "architecture: shared-l1, shared-l2, shared-mem, or all")
		model    = flag.String("model", "mipsy", "CPU model: mipsy or mxs")
		cpus     = flag.Int("cpus", 0, "override processor count (0 = paper's 4)")
		quick    = flag.Bool("quick", false, "use reduced data sets (smoke runs)")
		top      = flag.Int("top", 15, "rows per report table")
		jobs     = flag.Int("jobs", 0, "max concurrent architecture runs (0 = GOMAXPROCS); output is identical for any value")
		progress = flag.Bool("progress", false, "print per-job completion lines on stderr; stdout is unaffected")
		out      = flag.String("out", "", "write each run's raw profile as JSON to this file (arch spliced in before the extension)")
		folded   = flag.String("folded", "", "write folded-stack lines (flamegraph.pl input) to this file")
		in       = flag.String("in", "", "render a previously saved profile JSON and exit (no simulation)")
	)
	flag.Parse()

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		p, err := prof.ReadProfile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		p.WriteReport(os.Stdout, *top)
		return
	}
	if *wlName == "" {
		fmt.Fprintln(os.Stderr, "simprof: -workload is required (or -in to render a saved profile)")
		os.Exit(2)
	}

	var arches []core.Arch
	if *archStr == "all" {
		arches = core.Arches()
	} else {
		arches = []core.Arch{core.Arch(*archStr)}
	}

	pool := &runner.Pool{Workers: *jobs}
	if *progress {
		pool.Progress = os.Stderr
	}

	variant := "full"
	if *quick {
		variant = "quick"
	}
	archJobs := make([]runner.Job, len(arches))
	for i, a := range arches {
		cfg := memsys.DefaultConfig()
		if *cpus > 0 {
			cfg.NumCPUs = *cpus
		}
		cfg.Prof = prof.New(cfg.NumCPUs, cfg.LineBytes)
		name := *wlName
		q := *quick
		archJobs[i] = runner.Job{
			Workload: func() (workload.Workload, error) {
				if q {
					return workload.NewQuick(name)
				}
				return workload.New(name)
			},
			WorkloadKey: name + "/" + variant,
			Arch:        a,
			Model:       core.CPUModel(*model),
			Cfg:         cfg,
			Tag:         name + "-" + string(a),
		}
	}

	results := pool.Run(archJobs)
	if err := runner.FirstErr(results); err != nil {
		fatal(err)
	}

	multi := len(arches) > 1
	for i, a := range arches {
		p := results[i].Res.Profile
		if p == nil {
			fatal(fmt.Errorf("%s: run returned no profile", a))
		}
		p.Workload = *wlName
		p.WriteReport(os.Stdout, *top)
		if *out != "" {
			path := splice(*out, string(a), multi)
			if err := writeFile(path, p.WriteJSON); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote profile to %s\n", path)
		}
		if *folded != "" {
			path := splice(*folded, string(a), multi)
			if err := writeFile(path, p.WriteFolded); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote folded stacks to %s\n", path)
		}
	}
}
