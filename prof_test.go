// End-to-end tests for the guest-level cycle-attribution profiler: the
// per-PC books must reconcile with the CPU models' stall statistics,
// profiled output must be byte-deterministic at any worker count, and
// the disabled (nil-profiler) path must cost nothing.
package cmpsim_test

import (
	"bytes"
	"testing"

	"cmpsim"
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/prof"
	"cmpsim/internal/runner"
	"cmpsim/internal/workload"
)

// TestProfNumLevelsPinned pins prof's private copy of the memory-level
// count to the real one: memsys imports prof, so prof cannot import
// memsys back, and a new level added there must be mirrored.
func TestProfNumLevelsPinned(t *testing.T) {
	if prof.NumLevels != memsys.NumLevels {
		t.Fatalf("prof.NumLevels = %d, memsys.NumLevels = %d; keep them in lockstep",
			prof.NumLevels, memsys.NumLevels)
	}
}

// profRun runs one workload with a fresh profiler attached and returns
// the result (whose Profile is the snapshot).
func profRun(t *testing.T, arch cmpsim.Arch, model cmpsim.CPUModel) *cmpsim.Result {
	t.Helper()
	cfg := memsys.DefaultConfig()
	cfg.Prof = cmpsim.NewProfiler(cfg.NumCPUs, cfg.LineBytes)
	res, err := cmpsim.RunWorkload(eqntottSmall(), arch, model, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("profiled run returned no Profile snapshot")
	}
	return res
}

// sumPCs folds every per-PC entry of a profile into one aggregate.
func sumPCs(p *cmpsim.Profile) (retired, pipe uint64, istall, dstall [prof.NumLevels]uint64) {
	for i := range p.PCs {
		e := &p.PCs[i]
		retired += e.Retired
		pipe += e.Pipe
		for l := 0; l < prof.NumLevels; l++ {
			istall[l] += e.IStall[l]
			dstall[l] += e.DStall[l]
		}
	}
	return
}

// TestProfReconcilesWithStallStatsMipsy checks the Mipsy books exactly
// on every architecture: summing the per-PC profile entries must
// reproduce the run's instruction count and per-level stall statistics
// cycle for cycle — the profiler observes the same events, keyed by PC.
func TestProfReconcilesWithStallStatsMipsy(t *testing.T) {
	for _, arch := range cmpsim.Architectures() {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			t.Parallel()
			res := profRun(t, arch, cmpsim.ModelMipsy)
			retired, pipe, istall, dstall := sumPCs(res.Profile)
			var wantI, wantD [prof.NumLevels]uint64
			var wantPipe uint64
			for _, s := range res.PerCPU {
				for l := 0; l < prof.NumLevels; l++ {
					wantI[l] += s.IStall[l]
					wantD[l] += s.DStall[l]
				}
				wantPipe += s.PipeStall
			}
			if retired != res.Instructions() {
				t.Errorf("profile retired %d != run instructions %d", retired, res.Instructions())
			}
			if istall != wantI {
				t.Errorf("profile istall %v != stats %v", istall, wantI)
			}
			if dstall != wantD {
				t.Errorf("profile dstall %v != stats %v", dstall, wantD)
			}
			if pipe != wantPipe {
				t.Errorf("profile pipe %d != stats %d", pipe, wantPipe)
			}
		})
	}
}

// TestProfReconcilesWithStallStatsMXS checks the MXS books: retired,
// data-stall and pipeline-stall attributions are exact; instruction-
// fetch attribution may fall short of the stats only by the rare
// unmapped-fetch-PC cycles (the stall is still counted, just not
// attributable to a guest PC), never exceed them.
func TestProfReconcilesWithStallStatsMXS(t *testing.T) {
	res := profRun(t, cmpsim.SharedMem, cmpsim.ModelMXS)
	retired, pipe, istall, dstall := sumPCs(res.Profile)
	var wantI, wantD [prof.NumLevels]uint64
	var wantPipe uint64
	for _, s := range res.PerCPU {
		for l := 0; l < prof.NumLevels; l++ {
			wantI[l] += s.IStall[l]
			wantD[l] += s.DStall[l]
		}
		wantPipe += s.PipeStall
	}
	if retired != res.Instructions() {
		t.Errorf("profile retired %d != run instructions %d", retired, res.Instructions())
	}
	if dstall != wantD {
		t.Errorf("profile dstall %v != stats %v", dstall, wantD)
	}
	if pipe != wantPipe {
		t.Errorf("profile pipe %d != stats %d", pipe, wantPipe)
	}
	for l := 0; l < prof.NumLevels; l++ {
		if istall[l] > wantI[l] {
			t.Errorf("profile istall[%d] %d exceeds stats %d", l, istall[l], wantI[l])
		}
	}
}

// TestProfSymbolAttribution: the hot-function table must resolve PCs to
// real guest symbols — an all-hex table means the symbol plumbing from
// asm.Program.Symbols through core.Machine broke.
func TestProfSymbolAttribution(t *testing.T) {
	res := profRun(t, cmpsim.SharedL2, cmpsim.ModelMipsy)
	if len(res.Profile.Symbols) == 0 {
		t.Fatal("profile carries no symbols")
	}
	named := 0
	for _, r := range res.Profile.HotFuncs() {
		if len(r.Name) > 0 && r.Name[0] != '0' {
			named++
		}
	}
	if named == 0 {
		t.Error("no hot function resolved to a guest symbol")
	}
}

// TestProfLineSharingOnSharedMem: under the snoopy shared-memory
// architecture a multi-CPU workload must surface at least one line with
// coherence traffic (invalidation or cache-to-cache transfer) and
// writer→reader pair counts consistent with the totals.
func TestProfLineSharingOnSharedMem(t *testing.T) {
	res := profRun(t, cmpsim.SharedMem, cmpsim.ModelMipsy)
	shared := 0
	for i := range res.Profile.Lines {
		e := &res.Profile.Lines[i]
		var pairSum uint64
		for _, p := range e.Pairs {
			pairSum += p.Count
			if p.Writer == p.Reader {
				t.Errorf("line %#x has self-pair %d>%d", e.Addr, p.Writer, p.Reader)
			}
		}
		if pairSum != e.Invals+e.C2C {
			t.Errorf("line %#x pair counts %d != invals %d + c2c %d",
				e.Addr, pairSum, e.Invals, e.C2C)
		}
		if e.Traffic() > 0 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no line saw coherence traffic on shared-mem")
	}
}

// profJobs builds the three-architecture profiled job grid the way
// cmpsim -prof-out does.
func profJobs() []runner.Job {
	jobs := make([]runner.Job, 0, 3)
	for _, a := range core.Arches() {
		cfg := memsys.DefaultConfig()
		cfg.Prof = prof.New(cfg.NumCPUs, cfg.LineBytes)
		jobs = append(jobs, runner.Job{
			Workload: func() (workload.Workload, error) {
				return eqntottSmall(), nil
			},
			Arch:  a,
			Model: core.ModelMipsy,
			Cfg:   cfg,
			Tag:   "prof-" + string(a),
		})
	}
	return jobs
}

// renderProfiles runs the grid on a pool with the given worker count
// and renders every profile report and folded-stack dump to one buffer.
func renderProfiles(t *testing.T, workers int) []byte {
	t.Helper()
	pool := &runner.Pool{Workers: workers}
	results := pool.Run(profJobs())
	if err := runner.FirstErr(results); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		p := r.Res.Profile
		if p == nil {
			t.Fatal("job returned no profile")
		}
		if p.Workload != "eqntott" {
			t.Fatalf("profile names workload %q, want eqntott", p.Workload)
		}
		p.WriteReport(&buf, 10)
		if err := p.WriteFolded(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestProfOutputDeterministic is the acceptance gate for report
// stability: repeated serial runs and a 4-worker parallel run must all
// render byte-identical profile reports.
func TestProfOutputDeterministic(t *testing.T) {
	first := renderProfiles(t, 1)
	if again := renderProfiles(t, 1); !bytes.Equal(first, again) {
		t.Error("repeated -jobs=1 runs rendered different profiles")
	}
	if par := renderProfiles(t, 4); !bytes.Equal(first, par) {
		t.Error("-jobs=4 rendered a different profile than -jobs=1")
	}
}

// TestProfiledJobBypassesCache: a job carrying a profiler must never be
// served from (or written to) the result cache — a cached result could
// not carry a fresh profile.
func TestProfiledJobBypassesCache(t *testing.T) {
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := &runner.Pool{Workers: 1, Cache: cache}
	jobs := profJobs()
	for i := range jobs {
		jobs[i].WorkloadKey = "eqntott/test"
	}
	for round := 0; round < 2; round++ {
		results := pool.Run(jobs)
		if err := runner.FirstErr(results); err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Cached {
				t.Fatal("profiled job was served from the cache")
			}
			if r.Res.Profile == nil {
				t.Fatal("profiled job returned no profile")
			}
		}
	}
}

// TestProfDisabledDoesNotAllocate proves the nil-profiler fast path of
// a steady-state L1 hit performs zero heap allocations.
func TestProfDisabledDoesNotAllocate(t *testing.T) {
	s := memsys.NewSharedL2(memsys.DefaultConfig()) // Prof is nil
	now := warmLine(s)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 4
		if _, ok := s.Access(now, 0, 0x4000, false); !ok {
			t.Fatal("steady-state read hit refused")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-profiling access allocates %v per op, want 0", allocs)
	}
}

// BenchmarkProfDisabled measures the instrumented-but-disabled cost of
// the profiler hooks: steady-state L1 read hits with Config.Prof nil.
// The acceptance bar is 0 allocs/op.
func BenchmarkProfDisabled(b *testing.B) {
	s := memsys.NewSharedL2(memsys.DefaultConfig()) // Prof is nil
	now := warmLine(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 4
		if _, ok := s.Access(now, 0, 0x4000, false); !ok {
			b.Fatal("read hit refused")
		}
	}
}

// BenchmarkProfEnabled is the enabled-path companion: the same loop
// with a live profiler, quantifying what turning profiling on costs.
func BenchmarkProfEnabled(b *testing.B) {
	cfg := memsys.DefaultConfig()
	cfg.Prof = prof.New(cfg.NumCPUs, cfg.LineBytes)
	s := memsys.NewSharedL2(cfg)
	now := warmLine(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 4
		if _, ok := s.Access(now, 0, 0x4000, false); !ok {
			b.Fatal("read hit refused")
		}
	}
}
