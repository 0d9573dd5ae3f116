// Benchmarks regenerating the paper's tables and figures. Each
// BenchmarkFigures sub-benchmark runs one workload of the shared
// internal/benchfig matrix on all three architectures and reports the
// normalized execution times (the heights of the paper's bars) as
// custom metrics:
//
//	go test -bench=. -benchmem
//
// The data sets are reduced from the paper-scale defaults so a full
// bench sweep stays in the minutes range; cmd/experiments runs the
// paper-scale versions. Absolute cycle counts differ from the 1996
// testbed by design — the shapes (who wins, by roughly what factor) are
// the reproduction target. cmd/benchjson (make bench) measures the same
// matrix with and without quiescence skipping and writes the
// BENCH_figures.json perf baseline.
package cmpsim_test

import (
	"fmt"
	"testing"

	"cmpsim"
	"cmpsim/internal/benchfig"
	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// runFigure runs one benchfig entry (the workload on all three
// architectures) and reports each architecture's normalized execution
// time as a metric.
func runFigure(b *testing.B, f benchfig.Figure, cfg *cmpsim.Config) {
	b.Helper()
	var norm [3]float64
	var ipc [3]float64
	for i := 0; i < b.N; i++ {
		runs, _, err := benchfig.Run(f, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fig := cmpsim.BuildFigure("bench", "bench", f.Model, runs)
		for j, row := range fig.Rows {
			norm[j] = row.Norm.Total
			ipc[j] = row.IPC
		}
	}
	b.ReportMetric(norm[0], "norm-sharedL1")
	b.ReportMetric(norm[1], "norm-sharedL2")
	b.ReportMetric(norm[2], "norm-sharedMem")
	if f.Model == cmpsim.ModelMXS {
		b.ReportMetric(ipc[0]/4, "ipc/cpu-sharedL1")
		b.ReportMetric(ipc[1]/4, "ipc/cpu-sharedL2")
		b.ReportMetric(ipc[2]/4, "ipc/cpu-sharedMem")
	}
}

// --- Table 1 ---

func BenchmarkTable1_FuncUnitLatencies(b *testing.B) {
	ops := []isa.Op{isa.ADD, isa.MUL, isa.DIV, isa.BEQ, isa.SW,
		isa.FADDS, isa.FMULS, isa.FDIVS, isa.FADDD, isa.FMULD, isa.FDIVD}
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			sink += cpu.Latency(op)
		}
	}
	b.ReportMetric(float64(cpu.Latency(isa.FDIVD)), "dp-divide-cycles")
	_ = sink
}

// --- Table 2 ---

func BenchmarkTable2_AccessLatencies(b *testing.B) {
	var l1, l2lat, mem uint64
	for i := 0; i < b.N; i++ {
		cfg := memsys.DefaultConfig()
		s := memsys.NewSharedL2(cfg)
		r, _ := s.Access(0, 0, 0x1000, false)
		mem = r.Done
		r, _ = s.Access(1000, 0, 0x1000, false)
		l1 = r.Done - 1000
		r, _ = s.Access(2000, 1, 0x1000, false)
		l2lat = r.Done - 2000
	}
	b.ReportMetric(float64(l1), "sharedL2-L1-cycles")
	b.ReportMetric(float64(l2lat), "sharedL2-L2-cycles")
	b.ReportMetric(float64(mem), "sharedL2-mem-cycles")
}

// --- Figures 4-11 ---

// BenchmarkFigures runs every entry of the shared benchfig matrix
// (Figures 4-10 under Mipsy, Figure 11's applications under MXS) as a
// sub-benchmark; cmd/benchjson measures the identical matrix skip vs.
// Config.NoSkip and writes BENCH_figures.json.
func BenchmarkFigures(b *testing.B) {
	for _, f := range benchfig.Figures() {
		f := f
		b.Run(f.Name, func(b *testing.B) { runFigure(b, f, nil) })
	}
}

// --- Section 4.1 ablation ---

// BenchmarkAblation_MP3DL2Assoc runs the benchfig ablation's app and
// architecture at its quick size, with a 2-way point between its
// direct-mapped and 4-way L2.
func BenchmarkAblation_MP3DL2Assoc(b *testing.B) {
	ab := benchfig.Ablation()
	for _, assoc := range []uint32{ab.L2Assocs[0], 2, ab.L2Assocs[1]} {
		assoc := assoc
		b.Run(benchName("l2assoc", int(assoc)), func(b *testing.B) {
			var missRate float64
			for i := 0; i < b.N; i++ {
				cfg := cmpsim.DefaultConfig()
				cfg.L2Assoc = assoc
				w, err := workload.NewQuick(ab.App)
				if err != nil {
					b.Fatal(err)
				}
				res, err := cmpsim.RunWorkload(w, ab.Arch, cmpsim.ModelMipsy, &cfg)
				if err != nil {
					b.Fatal(err)
				}
				missRate = res.MemReport.L2.MissRate()
			}
			b.ReportMetric(100*missRate, "L2-miss-%")
		})
	}
}

// --- Design-choice ablations (DESIGN.md section 5) ---

// Shared-L1 hit time 1 vs 3 cycles and bank contention: the modelling
// delta between the paper's Mipsy and MXS configurations, on ear (the
// most latency-sensitive workload).
func BenchmarkAblation_SharedL1HitTime(b *testing.B) {
	for _, hit := range []uint64{1, 3} {
		hit := hit
		b.Run(benchName("hit", int(hit)), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := cmpsim.DefaultConfig()
				cfg.SharedL1HitLat = hit
				cfg.SharedL1BankContention = hit > 1
				w := workload.NewEar(workload.EarParams{Samples: 250})
				res, err := cmpsim.RunWorkload(w, cmpsim.SharedL1, cmpsim.ModelMipsy, &cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// Shared-L1 crossbar bank count sweep.
func BenchmarkAblation_SharedL1Banks(b *testing.B) {
	for _, banks := range []uint32{1, 2, 4, 8} {
		banks := banks
		b.Run(benchName("banks", int(banks)), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := cmpsim.DefaultConfig()
				cfg.SharedL1Banks = banks
				cfg.SharedL1HitLat = 3
				cfg.SharedL1BankContention = true
				w := workload.NewOcean(workload.OceanParams{N: 34, FineIter: 2, CoarseIt: 1})
				res, err := cmpsim.RunWorkload(w, cmpsim.SharedL1, cmpsim.ModelMipsy, &cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// Shared-L2 datapath width: the paper narrows the L2 path to 64 bits to
// save crossbar pins (occupancy 4); this sweeps the 128-bit alternative
// (occupancy 2) on bandwidth-hungry Ocean.
func BenchmarkAblation_SharedL2Datapath(b *testing.B) {
	for _, occ := range []uint64{2, 4} {
		occ := occ
		b.Run(benchName("occ", int(occ)), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := cmpsim.DefaultConfig()
				cfg.SharedL2Occ = occ
				w := workload.NewOcean(workload.OceanParams{N: 66, FineIter: 2, CoarseIt: 1})
				res, err := cmpsim.RunWorkload(w, cmpsim.SharedL2, cmpsim.ModelMipsy, &cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// Cache-to-cache transfer latency sweep for the shared-memory machine
// (Table 2's "> 50 cycles") on communication-bound eqntott.
func BenchmarkAblation_C2CLatency(b *testing.B) {
	for _, lat := range []uint64{50, 55, 70, 90} {
		lat := lat
		b.Run(benchName("c2c", int(lat)), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := cmpsim.DefaultConfig()
				cfg.C2CLat = lat
				w := workload.NewEqntott(workload.EqntottParams{Words: 128, Iters: 30})
				res, err := cmpsim.RunWorkload(w, cmpsim.SharedMem, cmpsim.ModelMipsy, &cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

func benchName(k string, v int) string {
	return fmt.Sprintf("%s-%d", k, v)
}
