// Package benchfig is the paper's figure table: every figure's title,
// bench name, workload, CPU model and configuration, plus the Section
// 4.1 ablation. cmd/experiments prints the titled rows at the paper's
// size (workload.New) or quick (workload.NewQuick); BenchmarkFigures,
// TestLedger and cmd/benchjson run them at the paper's, the cells the
// figures print. Only the memory-bound sentinel rows size their own
// data sets.
package benchfig

import (
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// Figure is one row of the table: the workload runs on all three
// architectures under one CPU model, mirroring the corresponding
// per-application figure of the paper.
type Figure struct {
	Name  string // bench sub-name and BENCH_figures.json key, e.g. "Figure5_MP3D"
	Title string // cmd/experiments' heading; "" = a benchmark-only row
	App   string // workload registry name (workload.New, workload.NewQuick)
	Model core.CPUModel
	Cfg   func() memsys.Config     // nil = memsys.DefaultConfig (the paper's parameters)
	New   func() workload.Workload // a memory-bound row's own data set; nil = workload.New(App)
}

// MemBound reports whether the row runs a memory-bound design point
// instead of the paper's parameters; the root package's TestLedger
// holds the Mipsy ones to a floor on the share of cycles skipped.
func (f Figure) MemBound() bool { return f.Cfg != nil }

// Config returns the memory-system configuration this figure is
// benchmarked under.
func (f Figure) Config() memsys.Config {
	if f.Cfg != nil {
		return f.Cfg()
	}
	return memsys.DefaultConfig()
}

// Workload builds the row's workload: its own data set if it has one,
// else App at the paper's size.
func (f Figure) Workload() (workload.Workload, error) {
	if f.New != nil {
		return f.New(), nil
	}
	return workload.New(f.App)
}

// MemBoundConfig is the memory-latency-bound design point used by the
// *_MemBound benchmark rows: DRAM at 800 cycles, an L2 at 80, and
// caches shrunk far below the working sets, on a 2-CPU machine. It is
// the regime the quiescence-skipping scheduler exists for — nearly all
// cycles have every CPU mid-miss — so these rows are the perf
// sentinels that future scheduler changes regress against. (Under the
// paper's default parameters only 5-30% of cycles are fully blocked
// and skipping is roughly wall-clock neutral; see DESIGN.md.)
func MemBoundConfig() memsys.Config {
	cfg := memsys.DefaultConfig()
	cfg.NumCPUs = 2
	cfg.MemLat = 800
	cfg.L2Lat = 80
	cfg.SharedL2Lat = 84
	cfg.C2CLat = 880 // keep C2C > memory, as in Table 2
	cfg.L1DSize = 4 << 10
	cfg.SharedL1Size = 16 << 10
	cfg.PrivL2Size = 64 << 10
	cfg.L2Size = 256 << 10
	return cfg
}

// MXSMemBoundConfig is the memory-bound design point on the paper's
// 4-CPU machine, for the detailed-CPU memory-bound row: the out-of-order
// cores spend most cycles with full MSHRs at staggered times, so the
// cycle loop's per-CPU wake cycles skip ticks that a skip of the whole
// machine could not.
func MXSMemBoundConfig() memsys.Config {
	cfg := MemBoundConfig()
	cfg.NumCPUs = 4
	return cfg
}

// MXSTitle heads cmd/experiments' block of the rows under ModelMXS.
const MXSTitle = "Figure 11: dynamic superscalar (MXS) results"

// Figures returns the table in the paper's figure order: Figures 4-10
// under Mipsy, Figure 11's three applications under MXS, then the
// untitled memory-bound sentinel rows.
func Figures() []Figure {
	return []Figure{
		{Name: "Figure4_Eqntott", Title: "Figure 4: Eqntott", App: "eqntott", Model: core.ModelMipsy},
		{Name: "Figure5_MP3D", Title: "Figure 5: MP3D", App: "mp3d", Model: core.ModelMipsy},
		{Name: "Figure6_Ocean", Title: "Figure 6: Ocean", App: "ocean", Model: core.ModelMipsy},
		{Name: "Figure7_Volpack", Title: "Figure 7: Volpack", App: "volpack", Model: core.ModelMipsy},
		{Name: "Figure8_Ear", Title: "Figure 8: Ear", App: "ear", Model: core.ModelMipsy},
		{Name: "Figure9_FFT", Title: "Figure 9: FFT", App: "fft", Model: core.ModelMipsy},
		{Name: "Figure10_Pmake", Title: "Figure 10: Multiprogramming + OS", App: "pmake", Model: core.ModelMipsy},
		{Name: "Figure11_MXS_Pmake", Title: "Figure 11a: Multiprogramming (MXS)", App: "pmake", Model: core.ModelMXS},
		{Name: "Figure11_MXS_Eqntott", Title: "Figure 11b: Eqntott (MXS)", App: "eqntott", Model: core.ModelMXS},
		{Name: "Figure11_MXS_Ear", Title: "Figure 11c: Ear (MXS)", App: "ear", Model: core.ModelMXS},
		// Memory-latency-bound variants of the MP3D and Ocean figures:
		// data sets of their own (MP3D 8192 particles, Ocean on a
		// 258x258 grid) under MemBoundConfig, where 90%+ of cycles are
		// fully blocked and the quiescence skip dominates.
		{"Figure5_MP3D_MemBound", "", "mp3d", core.ModelMipsy, MemBoundConfig, func() workload.Workload {
			return workload.NewMP3D(workload.MP3DParams{Particles: 8192, Steps: 1})
		}},
		{"Figure6_Ocean_MemBound", "", "ocean", core.ModelMipsy, MemBoundConfig, func() workload.Workload {
			return workload.NewOcean(workload.OceanParams{N: 258, FineIter: 1, CoarseIt: 1})
		}},
		// Detailed-CPU memory-bound row: CPUs blocked at staggered
		// times. See MXSMemBoundConfig.
		{"Figure11_MXS_MP3D_MemBound", "", "mp3d", core.ModelMXS, MXSMemBoundConfig, func() workload.Workload {
			return workload.NewMP3D(workload.MP3DParams{Particles: 2048, Steps: 1})
		}},
	}
}

// AssocAblation is an L2-associativity ablation: App on Arch under the
// simple CPU, once per associativity in L2Assocs.
type AssocAblation struct {
	Title, App string
	Arch       core.Arch
	L2Assocs   []uint32
}

// Ablation returns the Section 4.1 experiment: MP3D on the shared-L1
// machine with a direct-mapped and a 4-way set-associative L2.
func Ablation() AssocAblation {
	return AssocAblation{"Section 4.1 ablation: MP3D shared-L1 with L2 associativity 1 vs 4", "mp3d", core.SharedL1, []uint32{1, 4}}
}

// Run executes one iteration of a figure benchmark — the row's
// workload (f.Workload) on all three architectures — and returns the
// per-architecture results plus the total number of simulated cycles,
// the numerator of the simulated-cycles-per-second throughput metric. cfg overrides the
// memory-system parameters; nil uses the figure's own (f.Config).
func Run(f Figure, cfg *memsys.Config) (map[core.Arch]*core.RunResult, uint64, error) {
	if cfg == nil {
		c := f.Config()
		cfg = &c
	}
	runs := make(map[core.Arch]*core.RunResult, 3)
	var cycles uint64
	for _, a := range core.Arches() {
		w, err := f.Workload()
		if err != nil {
			return nil, 0, err
		}
		res, err := workload.Run(w, a, f.Model, cfg)
		if err != nil {
			return nil, 0, err
		}
		runs[a] = res
		cycles += res.Cycles
	}
	return runs, cycles, nil
}
