package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
	"cmpsim/internal/workload"
)

// parse registers one driver's groups on a fresh flag set and parses
// args; the error is the flag package's.
func parse(args ...string) (*Pool, *Instruments, *core.Arch, *core.CPUModel, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	pool := PoolFlags(fs)
	pool.RunReportFlags(fs)
	inst := InstrumentFlags(fs)
	WorkloadFlag(fs, "")
	arch := ArchFlag(fs, "all", true)
	model := ModelFlag(fs)
	return pool, inst, arch, model, fs.Parse(args)
}

func TestSplice(t *testing.T) {
	for _, c := range []struct{ path, tag, want string }{
		{"p.json", "shared-mem", "p.shared-mem.json"},
		{"out/run.trace", "figure-4-eqntott-shared-l1", "out/run.figure-4-eqntott-shared-l1.trace"},
		{"noext", "shared-l2", "noext.shared-l2"},
		{"a.b/c.jsonl", "x", "a.b/c.x.jsonl"},
		{"p.json", "", "p.json"},
	} {
		if got := splice(c.path, c.tag); got != c.want {
			t.Errorf("splice(%q, %q) = %q, want %q", c.path, c.tag, got, c.want)
		}
	}
}

// TestJobKey: the job's cache key is "name/quick" or "name/full" and
// its workload closure builds that variant.
func TestJobKey(t *testing.T) {
	pool, _, _, _, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	for _, quick := range []bool{false, true} {
		job := pool.Job("mp3d", quick, core.SharedL2, core.ModelMXS, memsys.DefaultConfig(), "mp3d-shared-l2")
		build, key := workload.New, "mp3d/full"
		if quick {
			build, key = workload.NewQuick, "mp3d/quick"
		}
		if job.WorkloadKey != key || job.Arch != core.SharedL2 || job.Model != core.ModelMXS || job.Tag != "mp3d-shared-l2" {
			t.Errorf("quick=%v: job %+v, want key %s", quick, job, key)
		}
		got, err := job.Workload()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := build("mp3d")
		if !reflect.DeepEqual(got, want) {
			t.Errorf("quick=%v: workload %+v, want %+v", quick, got, want)
		}
	}
}

// TestPoolShape: -jobs sizes the pool, and the other pool flags switch
// on the cache, the progress lines and the run report.
func TestPoolShape(t *testing.T) {
	for _, jobs := range []string{"0", "3", "64"} {
		p, _, _, _, err := parse("-jobs", jobs)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		if pool.Workers != p.jobs {
			t.Errorf("-jobs %s: %d workers", jobs, pool.Workers)
		}
		if pool.Cache != nil || pool.Progress != nil || pool.Telem != nil {
			t.Errorf("-jobs %s: pool has attachments nobody asked for: %+v", jobs, pool)
		}
		if err := p.WriteReport(); err != nil {
			t.Errorf("WriteReport without a report asked for: %v", err)
		}
	}

	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	p, _, _, _, err := parse("-cache-dir", filepath.Join(dir, "cache"), "-progress", "-run-report-out", report)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Cache == nil || pool.Progress != os.Stderr || pool.Telem == nil {
		t.Errorf("pool %+v lacks the cache, progress or job log its flags ask for", pool)
	}
	if err := p.WriteReport(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(report); err != nil {
		t.Errorf("-run-report-out wrote no report: %v", err)
	}
}

// TestArchAndModelRejectedAtParse: an unknown -arch, -model or
// -workload fails the parse itself, naming every valid value; "all" is
// valid only where the command registers it, and -workload's "" default
// parses.
func TestArchAndModelRejectedAtParse(t *testing.T) {
	_, _, arch, model, err := parse()
	if err != nil || *arch != "all" || *model != core.ModelMipsy {
		t.Fatalf("defaults: arch %q model %q err %v", *arch, *model, err)
	}
	_, _, arch, model, err = parse("-arch", "shared-l2", "-model", "mxs")
	if err != nil || *arch != core.SharedL2 || *model != core.ModelMXS {
		t.Fatalf("arch %q model %q err %v", *arch, *model, err)
	}
	for _, c := range []struct {
		args  []string
		valid []string
	}{
		{[]string{"-arch", "shared-l3"}, []string{"shared-l1", "shared-l2", "shared-mem", "all"}},
		{[]string{"-model", "ooo"}, []string{"mipsy", "mxs"}},
		{[]string{"-workload", "nope"}, []string{"eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "pmake", "latprobe"}},
	} {
		_, _, _, _, err := parse(c.args...)
		if err == nil {
			t.Errorf("%v parsed", c.args)
			continue
		}
		for _, v := range c.valid {
			if !strings.Contains(err.Error(), v) {
				t.Errorf("%v: error %q does not list %s", c.args, err, v)
			}
		}
	}

	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	ArchFlag(fs, core.SharedL1, false)
	if err := fs.Parse([]string{"-arch", "all"}); err == nil {
		t.Error(`-arch all parsed where the driver runs one architecture`)
	}
}

// TestCountsRejectedAtParse: a count flag below its minimum fails the
// parse, naming the minimum, and the defaults and the minimum itself
// parse (0 keeps its meaning for -cpus and -jobs).
func TestCountsRejectedAtParse(t *testing.T) {
	parse := func(args ...string) (*Pool, *Instruments, int, int, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		pool, inst, cpus := PoolFlags(fs), InstrumentFlags(fs), CPUsFlag(fs)
		var top int
		CountVar(fs, &top, "top", 15, 1, "rows per table")
		err := fs.Parse(args)
		return pool, inst, *cpus, top, err
	}
	pool, inst, cpus, top, err := parse()
	if err != nil || pool.jobs != 0 || inst.traceBuf != 1<<20 || cpus != 0 || top != 15 {
		t.Fatalf("defaults: jobs %d trace-buf %d cpus %d top %d, err %v", pool.jobs, inst.traceBuf, cpus, top, err)
	}
	pool, inst, cpus, top, err = parse("-jobs", "0", "-trace-buf", "1", "-cpus", "0", "-top", "0x10")
	if err != nil || pool.jobs != 0 || inst.traceBuf != 1 || cpus != 0 || top != 16 {
		t.Fatalf("minimums: jobs %d trace-buf %d cpus %d top %d, err %v", pool.jobs, inst.traceBuf, cpus, top, err)
	}
	for _, c := range []struct{ flag, value, want string }{
		{"-cpus", "-1", "want at least 0"},
		{"-jobs", "-2", "want at least 0"},
		{"-trace-buf", "-5", "want at least 1"},
		{"-top", "-1", "want at least 1"},
		{"-top", "ten", "invalid syntax"},
	} {
		if _, _, _, _, err := parse(c.flag, c.value); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %s: error %v, want %q", c.flag, c.value, err, c.want)
		}
	}
}

// TestBadArchExitsTwo runs the parse the way a driver does, on an
// ExitOnError flag set, in a child process: an unknown -arch must end
// it with exit status 2 before anything else happens.
func TestBadArchExitsTwo(t *testing.T) {
	if os.Getenv("CLI_TEST_BAD_ARCH") == "1" {
		fs := flag.NewFlagSet("sweep", flag.ExitOnError)
		ArchFlag(fs, core.SharedL1, false)
		fs.Parse([]string{"-arch", "all"})
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBadArchExitsTwo$")
	cmd.Env = append(os.Environ(), "CLI_TEST_BAD_ARCH=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("child exited with %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "want one of [shared-l1 shared-l2 shared-mem]") {
		t.Errorf("output does not list the valid architectures:\n%s", out)
	}
}

// TestInstrumentsPerJob: every Attach gives a job its own ring, sampler
// and profiler, and the sink writers put each job's files at the
// spliced paths.
func TestInstrumentsPerJob(t *testing.T) {
	dir := t.TempDir()
	_, inst, _, _, err := parse("-trace", filepath.Join(dir, "t.trace"), "-trace-out", filepath.Join(dir, "t.jsonl"),
		"-prof-out", filepath.Join(dir, "p.json"), "-metrics-interval", "1000", "-trace-buf", "16")
	if err != nil {
		t.Fatal(err)
	}
	var a, b memsys.Config
	ra, rb := inst.Attach(&a), inst.Attach(&b)
	if ra == nil || ra == rb || a.Trace != obsv.Tracer(ra) || a.Metrics == nil || a.Metrics == b.Metrics || a.Prof == nil || a.Prof == b.Prof {
		t.Fatalf("jobs share or lack attachments: %+v %+v", a, b)
	}
	ra.Emit(obsv.Event{Kind: obsv.EvLoad})
	if err := inst.WriteTraces(ra, "shared-l1"); err != nil {
		t.Fatal(err)
	}
	if err := inst.WriteProfile(&prof.Profile{}, "shared-l1"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t.shared-l1.trace", "t.shared-l1.jsonl", "p.shared-l1.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}

	var none memsys.Config
	_, bare, _, _, _ := parse()
	if ring := bare.Attach(&none); ring != nil || none.Trace != nil || none.Metrics != nil || none.Prof != nil {
		t.Errorf("Attach without instrument flags attached %+v", none)
	}
	if err := bare.WriteTraces(nil, "x"); err != nil {
		t.Error(err)
	}
	if err := bare.WriteProfile(&prof.Profile{}, "x"); err != nil {
		t.Error(err)
	}
}
