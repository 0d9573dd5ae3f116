package main

import (
	"fmt"
	"math/rand"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// apps is the paper's application order (Figures 4-10).
var apps = []string{"eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "pmake"}

// probeApps are the applications whose cells are replayed and re-run
// in isolation on the traced pass: MP3D has the heaviest and most
// architecture-dependent memory traffic, pmake is the only one with a
// guest kernel, timer events and separate address spaces.
var probeApps = map[string]bool{"mp3d": true, "pmake": true}

// cell is one (app, arch, model, config) simulation.
type cell struct {
	App    string        `json:"app"`
	Params string        `json:"params"` // drawn data-set parameters, for the result file
	Arch   core.Arch     `json:"arch"`
	Model  core.CPUModel `json:"model"`
	Config string        `json:"config"` // name of the memory-system configuration
	Probe  bool          `json:"probe"`

	cfg memsys.Config
	new func() workload.Workload
}

func (c *cell) tag() string {
	return fmt.Sprintf("%s-%s-%s-%s", c.App, c.Arch, c.Model, c.Config)
}

func (c *cell) String() string { return fmt.Sprintf("%s(%s)", c.tag(), c.Params) }

// spec is one benchmark workload: a list of cells, run serially on one
// goroutine or (pool) as runner.Jobs through a worker pool.
type spec struct {
	name string
	why  string
	pool bool
	// sets lists the (scale, model, config) blocks; each expands to
	// apps x the three architectures.
	sets []cellSet
}

type cellSet struct {
	apps   []string
	scale  func(app string) (workload.Workload, error)
	model  core.CPUModel
	config string
}

var configs = map[string]func() memsys.Config{
	"paper":        memsys.DefaultConfig,
	"membound":     benchfig.MemBoundConfig,
	"mxs-membound": benchfig.MXSMemBoundConfig,
}

// memboundMXSScale is the data-set table of membound_mxs: the
// Figure11_MXS_MP3D_MemBound size of internal/benchfig plus pmake at
// quick scale.
func memboundMXSScale(app string) (workload.Workload, error) {
	if app == "mp3d" {
		return workload.NewMP3D(workload.MP3DParams{Particles: 2048, Steps: 1}), nil
	}
	return workload.NewQuick(app)
}

var (
	paperMipsy = cellSet{apps, workload.New, core.ModelMipsy, "paper"}
	quickMXS   = cellSet{apps, workload.NewQuick, core.ModelMXS, "paper"}
)

// specs is the benchmark's workload table. The why strings are the
// ones BENCHMARK.json carries; bench_test.go keeps the two equal.
var specs = []spec{
	{
		name: "paper_mipsy",
		why:  "Figures 4-10 as cmd/experiments runs them: Mipsy ticks cost ~50 ns, so the scheduler loop and memsys have their largest share and the quiescence skip is pure overhead",
		sets: []cellSet{paperMipsy},
	},
	{
		name: "mxs_apps",
		why:  "the seven applications under MXS: the out-of-order pipeline is over 90% of host time, so an MXS issue/wakeup gain shows here and memsys or scheduler work must leave it flat",
		sets: []cellSet{quickMXS},
	},
	{
		name: "membound_mipsy",
		why:  "same guest programs as paper_mipsy on the 2-CPU DRAM-800 design point: most cycles are skipped and misses replace hits, so a skip gain that taxes the per-cycle path shows as a loss on paper_mipsy",
		sets: []cellSet{{apps, workload.New, core.ModelMipsy, "membound"}},
	},
	{
		name: "membound_mxs",
		why:  "MXS with staggered out-of-order stalls: most memsys calls are MSHR-full retries that do no work; the row a per-CPU skip in the serial loop should speed up and where -sim-jobs is judged",
		sets: []cellSet{{[]string{"mp3d", "pmake"}, memboundMXSScale, core.ModelMXS, "mxs-membound"}},
	},
	{
		name: "campaign",
		why:  "the cells of paper_mipsy and mxs_apps as runner jobs on min(2,nproc) workers with an empty result cache: host cores overlap, several guest images are live at once, results are JSON-encoded to disk",
		pool: true,
		sets: []cellSet{paperMipsy, quickMXS},
	},
}

// cells expands a spec into its cell list. Seed 0 gives the canonical
// data sets in the listed order; any other seed draws each
// application's size once (all three architectures of an application
// run the same program, as in the paper's figures) and shuffles the
// cell order.
func (s *spec) cells(seed int64) ([]cell, error) {
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(rand.NewSource(seed))
	}
	var out []cell
	for _, set := range s.sets {
		for _, app := range set.apps {
			canon, err := set.scale(app)
			if err != nil {
				return nil, err
			}
			mk, params := draw(canon, rng)
			for _, a := range core.Arches() {
				out = append(out, cell{
					App: app, Params: params, Arch: a, Model: set.model,
					Config: set.config, Probe: probeApps[app],
					cfg: configs[set.config](), new: mk,
				})
			}
		}
	}
	if rng != nil {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out, nil
}

// near draws uniformly from the multiples of quantum between 97% of n
// and n (n itself with a nil rng). Never above n: the guest layouts are
// sized for the canonical data sets (MP3D's aux table starts exactly
// 16384 records above its particle array, and a larger run fails
// Validate, not Configure). Three per cent keeps the simulated work of
// a pass well inside the end-to-end bounds across seeds while still
// moving every loop trip count and array extent the guest programs
// derive from the parameter.
func near(rng *rand.Rand, n, quantum int) int {
	if rng == nil {
		return n
	}
	lo := ((n*97+99)/100 + quantum - 1) / quantum * quantum
	hi := n / quantum * quantum
	if hi < lo {
		return n
	}
	return lo + quantum*rng.Intn((hi-lo)/quantum+1)
}

// draw returns a constructor for canon's application with its length
// parameter drawn near the canonical value, and a description of the
// parameters used. Legal sets come from each constructor's Configure
// checks: eqntott iterations, ear samples and pmake functions are
// free; MP3D particles must divide by the CPU count (4 covers both the
// 4- and 2-CPU machines). Ocean (N-2 a multiple of 8), Volpack (power
// of two) and FFT (power of two, batches a multiple of 4) have no legal
// neighbour within 3% below, so they keep their canonical size.
func draw(canon workload.Workload, rng *rand.Rand) (func() workload.Workload, string) {
	switch w := canon.(type) {
	case *workload.Eqntott:
		p := workload.EqntottParams{Words: w.Words, Iters: near(rng, w.Iters, 1)}
		return func() workload.Workload { return workload.NewEqntott(p) },
			fmt.Sprintf("words=%d iters=%d", p.Words, p.Iters)
	case *workload.MP3D:
		p := workload.MP3DParams{Particles: near(rng, w.Particles, 4), Steps: w.Steps, Grid: w.Grid}
		return func() workload.Workload { return workload.NewMP3D(p) },
			fmt.Sprintf("particles=%d steps=%d grid=%d", p.Particles, p.Steps, p.Grid)
	case *workload.Ear:
		p := workload.EarParams{Channels: w.Channels, Samples: near(rng, w.Samples, 1)}
		return func() workload.Workload { return workload.NewEar(p) },
			fmt.Sprintf("channels=%d samples=%d", p.Channels, p.Samples)
	case *workload.Pmake:
		p := workload.PmakeParams{Procs: w.Procs, Funcs: near(rng, w.Funcs, 1), Passes: w.Passes, Quantum: w.Quantum}
		return func() workload.Workload { return workload.NewPmake(p) },
			fmt.Sprintf("procs=%d funcs=%d passes=%d", p.Procs, p.Funcs, p.Passes)
	case *workload.Ocean:
		p := workload.OceanParams{N: w.N, FineIter: w.FineIter, CoarseIt: w.CoarseIt}
		return func() workload.Workload { return workload.NewOcean(p) },
			fmt.Sprintf("n=%d fine=%d coarse=%d", p.N, p.FineIter, p.CoarseIt)
	case *workload.Volpack:
		p := workload.VolpackParams{Size: w.Size, Depth: w.Depth}
		return func() workload.Workload { return workload.NewVolpack(p) },
			fmt.Sprintf("size=%d depth=%d", p.Size, p.Depth)
	case *workload.FFT:
		p := workload.FFTParams{N: w.N, Batches: w.Batches}
		return func() workload.Workload { return workload.NewFFT(p) },
			fmt.Sprintf("n=%d batches=%d", p.N, p.Batches)
	}
	panic(fmt.Sprintf("benchmark: no parameter table for workload %T", canon))
}
