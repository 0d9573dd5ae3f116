// Package stats turns raw simulation results into the quantities the
// paper reports: execution-time breakdowns normalized to the
// shared-memory baseline (Figures 4-10), miss-rate components
// (L1R/L1I/L2R/L2I), and the MXS IPC-loss breakdown (Figure 11).
package stats

import (
	"fmt"
	"strings"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
)

// Breakdown is the per-architecture execution-time decomposition of one
// run, in average cycles per CPU. CPU time includes synchronization spin
// (the paper folds lock/barrier waiting into CPU time).
type Breakdown struct {
	Total  float64 // wall-clock cycles of the run
	CPU    float64 // busy + spin + (MXS) pipeline stalls
	IStall float64 // instruction-fetch stalls, all levels
	DL1    float64 // data stalls serviced at L1 (extra hit latency, bank conflicts, buffers)
	DL2    float64 // data stalls serviced at L2
	DMem   float64 // data stalls serviced by memory
	DC2C   float64 // data stalls from cache-to-cache transfers / bus coherence

	// Violation is the magnitude of a stall-accounting invariant
	// violation: how many cycles the attributed stalls exceeded the run's
	// total (0 when the books balance). A non-zero value means a CPU
	// model double-counted stall cycles. The tally is per-run state (not
	// a process-global counter), so concurrent runs in the parallel
	// runner cannot race and back-to-back runs cannot bleed violations
	// into each other; Figure.AccountingViolations aggregates it per
	// figure.
	Violation float64
}

// FromRun computes a Breakdown from a run result. The stall components
// must sum to no more than the run's total cycles; if they exceed it by
// more than a rounding epsilon, the excess is recorded as an accounting
// violation instead of being silently clamped away.
func FromRun(r *core.RunResult) Breakdown {
	n := float64(len(r.PerCPU))
	var b Breakdown
	b.Total = float64(r.Cycles)
	for _, s := range r.PerCPU {
		b.IStall += float64(s.TotalIStall()) / n
		b.DL1 += float64(s.DStall[memsys.LvlL1]) / n
		b.DL2 += float64(s.DStall[memsys.LvlL2]) / n
		b.DMem += float64(s.DStall[memsys.LvlMem]) / n
		b.DC2C += float64(s.DStall[memsys.LvlC2C]) / n
	}
	b.CPU = b.Total - b.IStall - b.DL1 - b.DL2 - b.DMem - b.DC2C
	if b.CPU < 0 {
		eps := 1e-6
		if e := 1e-9 * b.Total; e > eps {
			eps = e // scale the tolerance with run length
		}
		if -b.CPU > eps {
			b.Violation = -b.CPU
		}
		b.CPU = 0
	}
	return b
}

// MemStall returns all data-side stall cycles.
func (b Breakdown) MemStall() float64 { return b.DL1 + b.DL2 + b.DMem + b.DC2C }

// Normalized returns b scaled so that base.Total == 1 (the paper
// normalizes each application to the shared-memory architecture).
func (b Breakdown) Normalized(base Breakdown) Breakdown {
	if base.Total == 0 {
		return b
	}
	f := 1 / base.Total
	return Breakdown{
		Total:  b.Total * f,
		CPU:    b.CPU * f,
		IStall: b.IStall * f,
		DL1:    b.DL1 * f,
		DL2:    b.DL2 * f,
		DMem:   b.DMem * f,
		DC2C:   b.DC2C * f,
	}
}

// MissRates carries the four miss-rate components of Section 4, as
// local rates (misses per reference to that cache).
type MissRates struct {
	L1R float64 // L1 data replacement miss rate
	L1I float64 // L1 data invalidation miss rate
	L2R float64 // L2 replacement miss rate
	L2I float64 // L2 invalidation miss rate
}

// MissRatesFrom extracts the components from a memory report.
func MissRatesFrom(rep memsys.Report) MissRates {
	return MissRates{
		L1R: rep.L1D.ReplRate(),
		L1I: rep.L1D.InvRate(),
		L2R: rep.L2.ReplRate(),
		L2I: rep.L2.InvRate(),
	}
}

// Row is one architecture's line in a figure table.
type Row struct {
	Arch    core.Arch
	B       Breakdown
	Norm    Breakdown // normalized to the shared-memory baseline
	Miss    MissRates
	IPC     float64
	Speedup float64 // baseline time / this time
	Cycles  uint64
	Insts   uint64
}

// Figure is a reproduction of one of the paper's per-application
// figures: the three architectures' breakdowns for one workload.
type Figure struct {
	Name     string // e.g. "Figure 4: Eqntott"
	Workload string
	Model    core.CPUModel
	Rows     []Row
}

// BuildFigure assembles a Figure from the three runs, normalizing to the
// shared-memory run (which must be present).
func BuildFigure(name, workload string, model core.CPUModel, runs map[core.Arch]*core.RunResult) Figure {
	fig := Figure{Name: name, Workload: workload, Model: model}
	base, ok := runs[core.SharedMem]
	if !ok {
		panic("stats: BuildFigure requires a shared-mem baseline run")
	}
	baseB := FromRun(base)
	for _, a := range core.Arches() {
		r, ok := runs[a]
		if !ok {
			continue
		}
		b := FromRun(r)
		fig.Rows = append(fig.Rows, Row{
			Arch:    a,
			B:       b,
			Norm:    b.Normalized(baseB),
			Miss:    MissRatesFrom(r.MemReport),
			IPC:     r.IPC(),
			Speedup: baseB.Total / b.Total,
			Cycles:  r.Cycles,
			Insts:   r.Instructions(),
		})
	}
	return fig
}

// AccountingViolations counts the rows of the figure whose stall
// decomposition violated the accounting invariant (attributed stalls
// exceeding the run's total cycles). This replaces the old
// process-global obsv counter: the tally is derived from the figure's
// own rows, so it is naturally per-figure and safe under the parallel
// runner.
func (f Figure) AccountingViolations() int {
	n := 0
	for _, r := range f.Rows {
		if r.B.Violation > 0 {
			n++
		}
	}
	return n
}

// String renders the figure as the text table the paper's bar charts
// encode: normalized execution time split into components, plus the
// miss-rate columns.
func (f Figure) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s, %s CPU model)\n", f.Name, f.Workload, f.Model)
	fmt.Fprintf(&sb, "%-11s %8s %7s %7s %7s %7s %7s %7s %8s | %7s %7s %7s %7s\n",
		"arch", "norm", "cpu", "istall", "dL1", "dL2", "dMem", "dC2C", "speedup",
		"L1R%", "L1I%", "L2R%", "L2I%")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-11s %8.3f %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f %8.3f | %7.3f %7.3f %7.3f %7.3f\n",
			r.Arch, r.Norm.Total, r.Norm.CPU, r.Norm.IStall, r.Norm.DL1, r.Norm.DL2,
			r.Norm.DMem, r.Norm.DC2C, r.Speedup,
			100*r.Miss.L1R, 100*r.Miss.L1I, 100*r.Miss.L2R, 100*r.Miss.L2I)
	}
	return sb.String()
}

// Chart renders the figure as ASCII stacked bars — the visual shape of
// the paper's figures. Each bar is the architecture's normalized
// execution time; the fill characters encode where the time went.
func (f Figure) Chart() string {
	const width = 60 // columns representing the baseline (1.0)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — normalized execution time (|%s…| = shared-mem = 1.00)\n",
		f.Name, strings.Repeat("-", 6))
	for _, r := range f.Rows {
		segs := [...]struct {
			ch byte
			v  float64
		}{
			{'c', r.Norm.CPU},
			{'i', r.Norm.IStall},
			{'1', r.Norm.DL1},
			{'2', r.Norm.DL2},
			{'m', r.Norm.DMem},
			{'x', r.Norm.DC2C},
		}
		// Segment widths must sum to round(total*width): rounding each
		// segment independently lets per-segment round-ups accumulate,
		// so a bar whose components sum to exactly 1.0 could overflow
		// the 60-column baseline. Largest-remainder apportionment keeps
		// the total exact, then a second pass guarantees every nonzero
		// component at least one visible column (stolen from the widest
		// segment, never growing the bar).
		var sum float64
		for _, s := range segs {
			sum += s.v
		}
		// float64(x*y): the same cells on every host (no fused multiply-add).
		total := int(float64(sum*width) + 0.5)
		var cols [len(segs)]int
		alloc := 0
		for i, s := range segs {
			cols[i] = int(s.v * width)
			alloc += cols[i]
		}
		for alloc < total {
			best, bestFrac := -1, -1.0
			for i, s := range segs {
				frac := float64(s.v*width) - float64(cols[i])
				if frac > bestFrac {
					best, bestFrac = i, frac
				}
			}
			cols[best]++
			alloc++
		}
		for i, s := range segs {
			if s.v <= 0 || cols[i] > 0 {
				continue
			}
			widest, w := -1, 1
			for j := range cols {
				if cols[j] > w {
					widest, w = j, cols[j]
				}
			}
			if widest < 0 {
				break // every segment is at width 1 already; nothing to steal
			}
			cols[widest]--
			cols[i]++
		}
		bar := make([]byte, 0, width+16)
		for i, s := range segs {
			for n := 0; n < cols[i]; n++ {
				bar = append(bar, s.ch)
			}
		}
		fmt.Fprintf(&sb, "%-11s |%s| %.3f\n", r.Arch, string(bar), r.Norm.Total)
	}
	sb.WriteString("            c=cpu+sync i=ifetch 1=L1 2=L2 m=memory x=cache-to-cache\n")
	return sb.String()
}

// IPCRow is one bar of Figure 11: achieved IPC and where the ideal
// 2-wide issue was lost.
type IPCRow struct {
	Arch     core.Arch
	IPC      float64
	LossI    float64 // IPC lost to instruction-cache stalls
	LossD    float64 // IPC lost to data-cache stalls
	LossPipe float64 // IPC lost to pipeline stalls (incl. shared-L1 hit time & bank contention)
}

// IPCBreakdown computes a Figure 11 row from an MXS run: the gap between
// the ideal per-CPU IPC of 2 and the achieved per-CPU IPC is apportioned
// across stall sources by their share of stall cycles.
func IPCBreakdown(r *core.RunResult) IPCRow {
	const ideal = 2.0
	row := IPCRow{Arch: r.Arch, IPC: r.IPC() / float64(len(r.PerCPU))}
	var iST, dST, pST float64
	for _, s := range r.PerCPU {
		iST += float64(s.TotalIStall())
		dST += float64(s.TotalDStall())
		pST += float64(s.PipeStall)
	}
	tot := iST + dST + pST
	loss := ideal - row.IPC
	if loss < 0 {
		loss = 0
	}
	if tot > 0 {
		row.LossI = loss * iST / tot
		row.LossD = loss * dST / tot
		row.LossPipe = loss * pST / tot
	}
	return row
}
