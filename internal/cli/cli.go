// Package cli is the flag surface cmd/cmpsim (one workload), cmd/sweep
// (one parameter sweep) and cmd/experiments (the paper's whole grid)
// share. Each registers only the groups it uses: PoolFlags (plus
// RunReportFlags), the run-shape flags one at a time, and
// InstrumentFlags. -workload, -arch, -model and the counts (CountVar)
// are checked as they are parsed, so an unknown or out-of-range value
// exits 2, naming what is valid, before any job runs.
// Like internal/runner, this is driver code outside the determinism
// analyzer's scope.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
	"cmpsim/internal/runner"
	"cmpsim/internal/telemetry"
	"cmpsim/internal/workload"
)

// Fatal prints err after the command's name on stderr and exits 1. It is
// the drivers' one exit path for a failed run or sink, so a broken cell
// never passes for a finished one.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}

// Pool is the runner-pool flag group.
type Pool struct {
	jobs             int
	cacheDir         string
	progress, report bool
	reportOut        string
	telem            *telemetry.Set
}

// PoolFlags registers -jobs, -cache-dir and -progress on fs.
func PoolFlags(fs *flag.FlagSet) *Pool {
	p := &Pool{}
	CountVar(fs, &p.jobs, "jobs", 0, 0, "max concurrent simulation runs (0 = GOMAXPROCS); output is identical for any value")
	fs.StringVar(&p.cacheDir, "cache-dir", "", "memoize run results as JSON under this directory (\"\" = off)")
	fs.BoolVar(&p.progress, "progress", false, "print per-job completion lines (wall time, cache status) on stderr; stdout is unaffected")
	return p
}

// RunReportFlags registers -run-report and -run-report-out on fs.
func (p *Pool) RunReportFlags(fs *flag.FlagSet) {
	fs.BoolVar(&p.report, "run-report", false, "print a deterministic end-of-campaign run report to stderr")
	fs.StringVar(&p.reportOut, "run-report-out", "", "write the end-of-campaign run report as JSON to this file")
}

// Open builds the runner pool the flags describe: -jobs workers, the
// -cache-dir cache, -progress lines on stderr, and a job log when a run
// report is asked for.
func (p *Pool) Open() (*runner.Pool, error) {
	pool := &runner.Pool{Workers: p.jobs}
	if p.progress {
		pool.Progress = os.Stderr
	}
	if p.report || p.reportOut != "" {
		p.telem = telemetry.New()
		pool.Telem = p.telem.Runner
	}
	if p.cacheDir != "" {
		cache, err := runner.OpenCache(p.cacheDir)
		if err != nil {
			return nil, err
		}
		pool.Cache = cache
	}
	return pool, nil
}

// WriteReport writes the run report of every job the opened pool has
// run, as -run-report and -run-report-out ask (neither: nothing).
func (p *Pool) WriteReport() error {
	if p.telem == nil {
		return nil
	}
	return p.telem.WriteReport(p.report, p.reportOut)
}

// Job returns the job that runs workload name (its quick variant when
// quick) on arch under model with cfg. Its cache key names the
// workload and the variant: "mp3d/quick".
func (p *Pool) Job(name string, quick bool, arch core.Arch, model core.CPUModel, cfg memsys.Config, tag string) runner.Job {
	variant, build := "full", workload.New
	if quick {
		variant, build = "quick", workload.NewQuick
	}
	return runner.Job{
		Workload:    func() (workload.Workload, error) { return build(name) },
		WorkloadKey: name + "/" + variant,
		Arch:        arch,
		Model:       model,
		Cfg:         cfg,
		Tag:         tag,
	}
}

// WorkloadFlag registers -workload with default def, which may be ""
// (none chosen). A name that is not a registered workload fails the
// parse.
func WorkloadFlag(fs *flag.FlagSet, def string) *string {
	w, valid := def, workload.Names()
	fs.Func("workload", fmt.Sprintf("workload to run: one of %v (default %q)", valid, def), oneOf(&w, valid))
	return &w
}

// ArchFlag registers -arch with default def. With all set it also
// accepts "all", every architecture.
func ArchFlag(fs *flag.FlagSet, def core.Arch, all bool) *core.Arch {
	valid := core.Arches()
	if all {
		valid = append(valid, "all")
	}
	a := def
	fs.Func("arch", fmt.Sprintf("architecture: one of %v (default %s)", valid, def), oneOf(&a, valid))
	return &a
}

// ModelFlag registers -model, the CPU model.
func ModelFlag(fs *flag.FlagSet) *core.CPUModel {
	m := core.ModelMipsy
	valid := []core.CPUModel{core.ModelMipsy, core.ModelMXS}
	fs.Func("model", fmt.Sprintf("CPU model: one of %v (default %s)", valid, m), oneOf(&m, valid))
	return &m
}

// oneOf returns a flag setter that stores only one of the valid values.
func oneOf[T ~string](v *T, valid []T) func(string) error {
	return func(s string) error {
		if !slices.Contains(valid, T(s)) {
			return fmt.Errorf("want one of %v", valid)
		}
		*v = T(s)
		return nil
	}
}

// QuickFlag registers -quick.
func QuickFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("quick", false, "use reduced data sets (smoke runs)")
}

// CPUsFlag registers -cpus.
func CPUsFlag(fs *flag.FlagSet) *int {
	var n int
	CountVar(fs, &n, "cpus", 0, 0, "override processor count (0 = paper's 4)")
	return &n
}

// CountVar registers an integer flag name on fs, stored in p, that
// refuses a value below min at parse time, naming the minimum (an
// ExitOnError flag set exits 2).
func CountVar(fs *flag.FlagSet, p *int, name string, def, min int, usage string) {
	*p = def
	fs.Func(name, fmt.Sprintf("%s (default %d)", usage, def), func(s string) error {
		v, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil {
			return err
		}
		if v < int64(min) {
			return fmt.Errorf("want at least %d", min)
		}
		*p = int(v)
		return nil
	})
}

// Instruments is the instrument flag group.
type Instruments struct {
	trace, traceOut, profOut string
	traceBuf                 int
	interval                 uint64
}

// InstrumentFlags registers -trace, -trace-out, -trace-buf,
// -metrics-interval and -prof-out on fs.
func InstrumentFlags(fs *flag.FlagSet) *Instruments {
	in := &Instruments{}
	const spliced = "; with several runs each run's tag is spliced in before the extension"
	fs.StringVar(&in.trace, "trace", "", "write a Chrome trace (chrome://tracing, Perfetto) to this file"+spliced)
	fs.StringVar(&in.traceOut, "trace-out", "", "write the raw event trace as JSON Lines (cmd/tracestats input) to this file"+spliced)
	CountVar(fs, &in.traceBuf, "trace-buf", 1<<20, 1, "trace ring-buffer capacity in events (oldest dropped)")
	fs.Uint64Var(&in.interval, "metrics-interval", 0, "sample interval metrics every N cycles (0 = off)")
	fs.StringVar(&in.profOut, "prof-out", "", "write the cycle-attribution profile as JSON (cmd/simprof input) to this file"+spliced)
	return in
}

// Attach gives cfg this job's own metrics sampler and profiler, and its
// own trace ring in cfg.Trace when a trace file is asked for. It returns
// the ring (nil without one) for WriteTraces. Call it once cfg.NumCPUs
// and cfg.LineBytes are final.
func (in *Instruments) Attach(cfg *memsys.Config) *obsv.Ring {
	if in.interval > 0 {
		cfg.Metrics = obsv.NewMetrics(in.interval)
	}
	if in.profOut != "" {
		cfg.Prof = prof.New(cfg.NumCPUs, cfg.LineBytes)
	}
	if in.trace == "" && in.traceOut == "" {
		return nil
	}
	ring := obsv.NewRing(in.traceBuf)
	cfg.Trace = ring
	return ring
}

// WriteTraces writes one finished job's ring to the -trace and
// -trace-out files, tag spliced into each path, and names each file on
// stdout. A ring that dropped events is reported on stderr.
func (in *Instruments) WriteTraces(ring *obsv.Ring, tag string) error {
	if ring == nil {
		return nil
	}
	events := ring.Events()
	var path string
	for _, sink := range []struct {
		path  string
		write func(io.Writer, []obsv.Event) error
	}{{in.trace, obsv.WriteChromeTrace}, {in.traceOut, obsv.WriteJSONL}} {
		if sink.path == "" {
			continue
		}
		path = splice(sink.path, tag)
		if err := WriteFile(path, func(w io.Writer) error { return sink.write(w, events) }); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", len(events), path)
	}
	if ring.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "%s: %s: trace ring dropped %d of %d events (raise -trace-buf)\n",
			filepath.Base(os.Args[0]), path, ring.Dropped(), ring.Emitted())
	}
	return nil
}

// WriteProfile writes one finished job's profile to the -prof-out file,
// tag spliced into the path, and names the file on stdout. Without a
// profile or -prof-out it writes nothing.
func (in *Instruments) WriteProfile(p *prof.Profile, tag string) error {
	if p == nil || in.profOut == "" {
		return nil
	}
	path := splice(in.profOut, tag)
	if err := WriteFile(path, p.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("wrote profile to %s\n", path)
	return nil
}

// splice inserts tag before path's extension, so runs of one invocation
// never share a sink file ("p.json" → "p.shared-mem.json"). An empty tag
// leaves path as it is.
func splice(path, tag string) string {
	if tag == "" {
		return path
	}
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "." + tag + ext
}

// WriteFile creates path and hands it to fn, folding the close error
// into fn's. File errors name the path (*os.PathError).
func WriteFile(path string, fn func(io.Writer) error) error {
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
