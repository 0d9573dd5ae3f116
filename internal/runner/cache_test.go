package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
)

// TestCacheHitAndKnobMiss is the cache contract: a second identical
// invocation is served from disk without simulating, and mutating any
// timing knob misses.
func TestCacheHitAndKnobMiss(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := &Pool{Workers: 1, Cache: cache}

	job := smallJob(core.SharedL1)
	first := pool.Run([]Job{job})[0]
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Cached {
		t.Error("first run reported Cached on a cold cache")
	}

	second := pool.Run([]Job{job})[0]
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.Cached {
		t.Error("second identical run did not hit the cache")
	}
	if second.Res.Cycles != first.Res.Cycles ||
		!reflect.DeepEqual(second.Res.PerCPU, first.Res.PerCPU) ||
		!reflect.DeepEqual(second.Res.MemReport, first.Res.MemReport) {
		t.Error("cached result does not round-trip bit-identically")
	}

	mutated := job
	mutated.Cfg.MemLat = 200 // 4x the paper's memory latency: timing must move
	third := pool.Run([]Job{mutated})[0]
	if third.Err != nil {
		t.Fatal(third.Err)
	}
	if third.Cached {
		t.Error("mutated knob still hit the cache")
	}
	if third.Res.Cycles == first.Res.Cycles {
		t.Error("4x memory latency left the cycle count unchanged — cache key may be aliasing")
	}
}

// TestKeyDiscriminates pins the key construction: every identity
// component (workload, arch, model, any scalar knob) must change the
// key, while runtime attachments must not.
func TestKeyDiscriminates(t *testing.T) {
	base := smallJob(core.SharedL1)
	baseKey := Key(&base)

	vary := map[string]func(*Job){
		"workload": func(j *Job) { j.WorkloadKey = "other/params" },
		"arch":     func(j *Job) { j.Arch = core.SharedMem },
		"model":    func(j *Job) { j.Model = core.ModelMXS },
		"knob":     func(j *Job) { j.Cfg.MemLat = 51 },
		"cpus":     func(j *Job) { j.Cfg.NumCPUs = 8 },
	}
	for name, mutate := range vary {
		j := base
		mutate(&j)
		if Key(&j) == baseKey {
			t.Errorf("varying %s did not change the cache key", name)
		}
	}

	// Runtime attachments are not part of the key — but jobs carrying
	// them are declared uncacheable, so they can never alias.
	withRing := base
	withRing.Cfg.Trace = obsv.NewRing(8)
	if Key(&withRing) != baseKey {
		t.Error("tracer attachment changed the cache key")
	}
	if Cacheable(&withRing) {
		t.Error("job with a tracer must not be cacheable")
	}
	withMetrics := base
	withMetrics.Cfg.Metrics = obsv.NewMetrics(100)
	if Cacheable(&withMetrics) {
		t.Error("job with a metrics sampler must not be cacheable")
	}
	noKey := base
	noKey.WorkloadKey = ""
	if Cacheable(&noKey) {
		t.Error("job without a workload key must not be cacheable")
	}
	if !Cacheable(&base) {
		t.Error("plain job must be cacheable")
	}
}

// TestFingerprintCoversEveryScalarKnob guards the reflection walk: if
// a future Config field of scalar kind were skipped, two configs
// differing only in that knob would alias in the cache. Every field
// that is not a runtime attachment must appear by name.
func TestFingerprintCoversEveryScalarKnob(t *testing.T) {
	cfg := memsys.DefaultConfig()
	fp := Fingerprint(&cfg)
	typ := reflect.TypeOf(cfg)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch reflect.ValueOf(cfg).Field(i).Kind() {
		case reflect.Func, reflect.Pointer, reflect.Interface:
			if strings.Contains(fp, f.Name+"=") {
				t.Errorf("attachment field %s leaked into the fingerprint", f.Name)
			}
		default:
			if f.Name == "SimJobs" {
				// Inert field: skipped by name so cache keys stay put (see
				// Fingerprint's doc comment).
				if strings.Contains(fp, f.Name+"=") {
					t.Errorf("output-neutral knob %s leaked into the fingerprint", f.Name)
				}
				continue
			}
			if !strings.Contains(fp, f.Name+"=") {
				t.Errorf("scalar knob %s missing from the fingerprint", f.Name)
			}
		}
	}
}

// TestAttachmentsMakeJobsUncacheable is the other half of the
// fingerprint contract: the fields Fingerprint skips must each make a
// job uncacheable when set, or two configs differing only there would
// share a key. Every func, pointer and interface field of Config is set
// non-nil in turn. Map, chan and unsafe-pointer fields are refused
// outright: the fingerprint cannot render them canonically.
func TestAttachmentsMakeJobsUncacheable(t *testing.T) {
	// Non-nil values for interface-typed fields; a new interface field
	// needs an implementation here.
	implementations := []any{obsv.NewRing(1)}
	typ := reflect.TypeOf(memsys.Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		job := Job{WorkloadKey: "w", Arch: core.SharedL1, Model: core.ModelMipsy, Cfg: memsys.DefaultConfig()}
		field := reflect.ValueOf(&job.Cfg).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Map, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("Config.%s is a %s, which the fingerprint cannot render; use scalars", f.Name, f.Type.Kind())
			continue
		case reflect.Func:
			field.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value {
				panic("attachment called by Cacheable")
			}))
		case reflect.Pointer:
			field.Set(reflect.New(f.Type.Elem()))
		case reflect.Interface:
			for _, v := range implementations {
				if reflect.TypeOf(v).Implements(f.Type) {
					field.Set(reflect.ValueOf(v))
					break
				}
			}
			if field.IsNil() {
				t.Fatalf("no non-nil value for Config.%s (%s): add one to implementations", f.Name, f.Type)
			}
		default:
			continue
		}
		if Cacheable(&job) {
			t.Errorf("job with Config.%s set is cacheable, but Fingerprint skips the field: require it nil in Cacheable", f.Name)
		}
	}
}

// TestKeyStable pins the hex keys of representative jobs, so a change
// to Config or to Fingerprint that would orphan existing cache entries
// fails here instead of silently recomputing every cell. The keys are
// taken at version 0, so a SimVersion bump leaves the table as it is.
func TestKeyStable(t *testing.T) {
	for _, c := range []struct {
		arch  core.Arch
		model core.CPUModel
		cfg   memsys.Config
		want  string
	}{
		{core.SharedL1, core.ModelMipsy, memsys.DefaultConfig(), "94e7a09264926d886bdd296760fdb860"},
		{core.SharedL2, core.ModelMipsy, memsys.DefaultConfig(), "fe09b00f4a3a896dc0ed6d1af645045a"},
		{core.SharedMem, core.ModelMipsy, memsys.DefaultConfig(), "4c76008ff878d5f62aed24a83df07833"},
		{core.SharedL1, core.ModelMXS, memsys.DefaultConfig(), "4bc1ce13948f093f992bad5c6f929e50"},
		{core.SharedL2, core.ModelMXS, memsys.DefaultConfig(), "cd55f33abd110c89633c4a01506f8b41"},
		{core.SharedMem, core.ModelMXS, memsys.DefaultConfig(), "aec979a991eefaae00e971ab65b2b0d5"},
		{core.SharedMem, core.ModelMipsy, benchfig.MemBoundConfig(), "5597b4df78670dd674c2221db7560f5c"},
		{core.SharedMem, core.ModelMXS, benchfig.MXSMemBoundConfig(), "9aef80a5f4a8c0d8b9be90c88c21278d"},
	} {
		job := smallJob(c.arch)
		job.Model, job.Cfg = c.model, c.cfg
		if got := key(0, &job); got != c.want || Key(&job) != key(SimVersion, &job) {
			t.Errorf("%s/%s (%d CPUs): key %s, want %s, and Key must be key at SimVersion", c.arch, c.model, c.cfg.NumCPUs, got, c.want)
		}
	}
}

// TestCorruptEntryIsAnError: a damaged cache file must surface as an
// explicit error, not silent recomputation (which would mask the
// damage forever).
func TestCorruptEntryIsAnError(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := smallJob(core.SharedL1)
	key := Key(&job)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Get(key); err == nil {
		t.Fatal("corrupt entry did not error")
	}
	res := (&Pool{Workers: 1, Cache: cache}).Run([]Job{job})[0]
	if res.Err == nil {
		t.Fatal("pool did not propagate the corrupt-cache error")
	}
}

// TestStaleSimVersionMisses: entries stamped by another simulator
// revision are ignored (a miss), never returned as current results.
func TestStaleSimVersionMisses(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := smallJob(core.SharedL1)
	key := Key(&job)
	stale := `{"simVersion": 0, "result": {"Arch": "shared-l1", "Cycles": 1}}`
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(stale), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cache.Get(key); err != nil || ok {
		t.Fatalf("stale entry: ok=%v err=%v, want miss without error", ok, err)
	}
}

// TestMetricsNeverCached: Put must strip the Metrics attachment so a
// cached result can never alias a sampler from another run.
func TestMetricsNeverCached(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &core.RunResult{Arch: core.SharedL1, Model: core.ModelMipsy, Cycles: 42,
		Metrics: obsv.NewMetrics(10)}
	if err := cache.Put("somekey", res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cache.Get("somekey")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if got.Metrics != nil {
		t.Error("Metrics attachment survived the cache round-trip")
	}
	if got.Cycles != 42 || got.Arch != core.SharedL1 {
		t.Errorf("cached result corrupted: %+v", got)
	}
}
