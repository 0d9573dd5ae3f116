// Package cli is the flag surface cmd/cmpsim (one workload, or one knob
// swept with -set) and cmd/experiments (the paper's whole grid, or one
// sweep of it) share. Each registers only the groups it uses: PoolFlags
// (plus RunReportFlags), the run-shape flags one at a time, SetFlag and
// InstrumentFlags. -workload, -arch, -model, -set and the counts
// (CountVar) are checked as they are parsed, and -quick against
// -workload and -set against -model right after (CheckQuick,
// Set.CheckModel), so an unknown or out-of-range value exits 2, naming
// what is valid, before any job runs.
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
	"strings"

	"cmpsim/internal/benchfig"
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

// WorkloadFlag registers -workload, none chosen by default. A name
// that is not a registered workload fails the parse.
func WorkloadFlag(fs *flag.FlagSet) *string {
	var w string
	valid := workload.Names()
	fs.Func("workload", fmt.Sprintf("workload to run: one of %v (default %q)", valid, w), oneOf(&w, valid))
	return &w
}

// ArchFlag registers -arch: one architecture, or "all" (the default),
// every architecture.
func ArchFlag(fs *flag.FlagSet) *core.Arch {
	a := core.Arch("all")
	valid := append(core.Arches(), a)
	fs.Func("arch", fmt.Sprintf("architecture: one of %v (default %s)", valid, a), oneOf(&a, valid))
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

// CheckQuick refuses -quick for a workload with no quick variant,
// naming those that have one. The two flags may come in either order,
// so a driver that registers both calls it right after the parse and
// exits 2 on its error, as the parse does.
func CheckQuick(name string, quick bool) error {
	if !quick || name == "" {
		return nil
	}
	_, err := workload.NewQuick(name)
	return err
}

// Set is the -set flag: knobs of benchfig.Knobs set over the paper's
// configuration. Each -set is knob=v, a base setting, or, for at most
// one knob, knob=v1,v2,..., the knob swept over those values.
type Set struct {
	Help   bool               // -set help: list the knobs instead of running
	Base   []benchfig.Setting // in command-line order
	Knob   string             // the swept knob; "" = no sweep
	Values []uint64           // its values, in the order given
}

// SetFlag registers the repeatable -set on fs. An unknown knob, a value
// its field cannot hold, a knob set twice and a second swept knob each
// fail the parse, naming the knob.
func SetFlag(fs *flag.FlagSet) *Set {
	s := &Set{}
	fs.Func("set", "set a memory-system knob, knob=v; one knob given knob=v1,v2,... is swept (repeatable; -set help lists the knobs)", s.add)
	return s
}

func (s *Set) add(arg string) error {
	if arg == "help" {
		s.Help = true
		return nil
	}
	name, list, _ := strings.Cut(arg, "=")
	knob, ok := benchfig.Knobs[name]
	if !ok {
		return fmt.Errorf("unknown knob %q (-set help lists them)", name)
	}
	if s.has(name) {
		return fmt.Errorf("%s: set twice", name)
	}
	var values []uint64
	for _, vs := range strings.Split(list, ",") {
		v, err := strconv.ParseUint(vs, 10, 64)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if v > knob.Max {
			return fmt.Errorf("%s: value %d does not fit its field (at most %d)", name, v, knob.Max)
		}
		values = append(values, v)
	}
	switch {
	case len(values) == 1:
		s.Base = append(s.Base, benchfig.Setting{Knob: name, Value: values[0]})
	case s.Knob != "":
		return fmt.Errorf("%s: a second swept knob after %s (sweep one at a time)", name, s.Knob)
	default:
		s.Knob, s.Values = name, values
	}
	return nil
}

// has reports whether knob name is set, swept or not.
func (s *Set) has(name string) bool {
	return name == s.Knob || slices.ContainsFunc(s.Base, func(b benchfig.Setting) bool { return b.Knob == name })
}

// CheckModel refuses a shared-L1 hit time under the MXS model, which
// fixes it (core.NewMachine applies memsys.Config.MXS over the setting),
// so the run would print one value and simulate another. Like
// CheckQuick, a driver calls it right after the parse and exits 2 on
// its error.
func (s *Set) CheckModel(model core.CPUModel) error {
	if model == core.ModelMXS && s.has("sharedl1hit") {
		return fmt.Errorf("-set sharedl1hit does not apply under -model mxs: the MXS model fixes the shared-L1 hit time at 3 cycles (Config.MXS, Section 4.4)")
	}
	return nil
}

// Points returns the configuration of each point, in the order of the
// swept values (one point without a sweep): the paper's, then the base
// settings in command-line order, then the swept knob, the order
// benchfig.Sweep.Config sets them in.
func (s *Set) Points() []memsys.Config {
	base := memsys.DefaultConfig()
	for _, b := range s.Base {
		benchfig.Knobs[b.Knob].Set(&base, b.Value)
	}
	if s.Knob == "" {
		return []memsys.Config{base}
	}
	points := make([]memsys.Config, len(s.Values))
	for i, v := range s.Values {
		points[i] = base
		benchfig.Knobs[s.Knob].Set(&points[i], v)
	}
	return points
}

// WriteKnobs lists every knob and its meaning, for -set help.
func WriteKnobs(w io.Writer) {
	var names []string
	for name := range benchfig.Knobs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-14s %s\n", name, benchfig.Knobs[name].Help)
	}
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
