// Package benchfig is the paper's figure table: every figure's title,
// bench name, workload, CPU model and configuration, plus the sweeps
// of DESIGN.md section 5 over its knobs (Knobs, which cmpsim -set
// parses). cmd/experiments prints the titled rows and sweeps, or with
// -sweep any one sweep, at the paper's size (workload.New) or quick
// (workload.NewQuick); TestLedger and cmd/benchjson run the rows at the
// paper's, and TestLedger pins every sweep point. Only the memory-bound
// sentinel rows size their own data sets.
package benchfig

import (
	"fmt"
	"math"
	"reflect"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// Figure is one row of the table: the workload runs on all three
// architectures under one CPU model, mirroring the corresponding
// per-application figure of the paper.
type Figure struct {
	Name  string // BENCH_figures.json key and ledger row prefix, e.g. "Figure5_MP3D"
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

// Knob is a memsys.Config parameter a sweep varies.
type Knob struct {
	Help string
	Max  uint64 // the largest value the field it sets holds
	Set  func(*memsys.Config, uint64)
}

// Knobs maps each sweepable parameter's name (cmpsim -set name=v) to
// its knob.
var Knobs = map[string]Knob{
	"l1dsize":      {"private L1 D-cache bytes", math.MaxUint32, func(c *memsys.Config, v uint64) { c.L1DSize = uint32(v) }},
	"l1isize":      {"private L1 I-cache bytes", math.MaxUint32, func(c *memsys.Config, v uint64) { c.L1ISize = uint32(v) }},
	"sharedl1size": {"shared L1 bytes", math.MaxUint32, func(c *memsys.Config, v uint64) { c.SharedL1Size = uint32(v) }},
	"sharedl1hit": {"shared L1 hit latency (cycles); >1 also enables bank contention", math.MaxUint64, func(c *memsys.Config, v uint64) {
		c.SharedL1HitLat = v
		c.SharedL1BankContention = v > 1
	}},
	"sharedl1banks": {"shared L1 bank count", math.MaxUint32, func(c *memsys.Config, v uint64) {
		c.SharedL1Banks = uint32(v)
		c.SharedL1BankContention = true
	}},
	"l2assoc":     {"L2 associativity", math.MaxUint32, func(c *memsys.Config, v uint64) { c.L2Assoc = uint32(v) }},
	"l2lat":       {"uniprocessor-style L2 latency", math.MaxUint64, func(c *memsys.Config, v uint64) { c.L2Lat = v }},
	"sharedl2lat": {"crossbar L2 latency", math.MaxUint64, func(c *memsys.Config, v uint64) { c.SharedL2Lat = v }},
	"sharedl2occ": {"crossbar L2 line occupancy (datapath width)", math.MaxUint64, func(c *memsys.Config, v uint64) { c.SharedL2Occ = v }},
	"memlat":      {"main memory latency", math.MaxUint64, func(c *memsys.Config, v uint64) { c.MemLat = v }},
	"c2clat":      {"cache-to-cache transfer latency", math.MaxUint64, func(c *memsys.Config, v uint64) { c.C2CLat = v }},
	"mshrs":       {"outstanding misses per cache port", math.MaxInt, func(c *memsys.Config, v uint64) { c.MSHRs = int(v) }},
	"wbuf":        {"write buffer depth", math.MaxInt, func(c *memsys.Config, v uint64) { c.WriteBufDepth = int(v) }},
	"privl2size":  {"private L2 bytes per CPU (shared-mem)", math.MaxUint32, func(c *memsys.Config, v uint64) { c.PrivL2Size = uint32(v) }},
	"cpus": {"processor count — the CMP scaling axis (workloads re-decompose; ocean needs 4)", math.MaxInt,
		func(c *memsys.Config, v uint64) { c.NumCPUs = int(v) }},
}

// Sweep is a one-knob study under the simple CPU: App on Arch with Knob
// at each of Values (ascending) over the paper's configuration, Base
// set first. As the value rises, cycles never fall if Dir is +1 and
// never rise if it is -1. Title is cmd/experiments' heading in the
// whole campaign ("" = a sweep it prints only under -sweep) and Label
// its format of one point.
type Sweep struct {
	Name, Title, Label string
	App                string
	Arch               core.Arch
	Knob               string
	Values             []uint64
	Base               []Setting
	Dir                int
}

// Setting is one knob at one value.
type Setting struct {
	Knob  string
	Value uint64
}

// Config returns the configuration of the sweep's point v.
func (s Sweep) Config(v uint64) memsys.Config {
	cfg := memsys.DefaultConfig()
	for _, b := range s.Base {
		Knobs[b.Knob].Set(&cfg, b.Value)
	}
	Knobs[s.Knob].Set(&cfg, v)
	return cfg
}

// Default reports whether point v is the paper's configuration, a cell
// the figures already run.
func (s Sweep) Default(v uint64) bool { return reflect.DeepEqual(s.Config(v), memsys.DefaultConfig()) }

// Point names point v by its settings, e.g. "sharedl1hit3-sharedl1banks2".
func (s Sweep) Point(v uint64) string {
	var name string
	for _, b := range s.Base {
		name += fmt.Sprintf("%s%d-", b.Knob, b.Value)
	}
	return fmt.Sprintf("%s%s%d", name, s.Knob, v)
}

// Sweeps returns the Section 4.1 ablation, the one sweep the whole
// campaign of cmd/experiments prints, then the design choices of
// DESIGN.md section 5.
func Sweeps() []Sweep {
	return []Sweep{
		{Name: "MP3DL2Assoc", Title: "Section 4.1 ablation: MP3D shared-L1 with L2 associativity 1 vs 4", Label: "L2 %d-way",
			App: "mp3d", Arch: core.SharedL1, Knob: "l2assoc", Values: []uint64{1, 4}, Dir: -1},
		{Name: "SharedL1HitTime", App: "ear", Arch: core.SharedL1, Knob: "sharedl1hit", Values: []uint64{1, 3}, Dir: 1},
		{Name: "SharedL1Banks", App: "ocean", Arch: core.SharedL1, Knob: "sharedl1banks", Values: []uint64{1, 2, 4, 8},
			Base: []Setting{{"sharedl1hit", 3}}, Dir: -1},
		{Name: "SharedL2Datapath", App: "ocean", Arch: core.SharedL2, Knob: "sharedl2occ", Values: []uint64{2, 4}, Dir: 1},
		{Name: "C2CLatency", App: "eqntott", Arch: core.SharedMem, Knob: "c2clat", Values: []uint64{50, 55, 70, 90}, Dir: 1},
	}
}

// Run executes one iteration of a figure benchmark, the row's workload
// (f.Workload) on all three architectures under cfg, and returns the
// simulated cycles summed over them, the numerator of the
// simulated-cycles-per-second throughput metric.
func Run(f Figure, cfg memsys.Config) (uint64, error) {
	var cycles uint64
	for _, a := range core.Arches() {
		w, err := f.Workload()
		if err != nil {
			return 0, err
		}
		res, err := workload.Run(w, a, f.Model, &cfg)
		if err != nil {
			return 0, err
		}
		cycles += res.Cycles
	}
	return cycles, nil
}
