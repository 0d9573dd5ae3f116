// Package cmpsim is a from-scratch reproduction of the system studied in
// "Evaluation of Design Alternatives for a Multiprocessor Microprocessor"
// (Nayfeh, Hammond, Olukotun; ISCA 1996): an execution-driven simulator
// for three four-processor architectures — shared-primary-cache,
// shared-secondary-cache, and bus-based shared-memory — driven by two CPU
// models (the simple in-order "Mipsy" and the 2-way out-of-order "MXS")
// running the paper's seven workloads as real guest programs for a custom
// MIPS-like ISA.
//
// This package is the public facade: it re-exports the user-facing types
// from the internal packages so a downstream user can run workloads,
// sweep configurations and collect the paper's figures without touching
// simulator internals.
//
// Quick start:
//
//	w, _ := cmpsim.NewWorkload("eqntott")
//	res, err := cmpsim.RunWorkload(w, cmpsim.SharedL1, cmpsim.ModelMipsy, nil)
//	fmt.Println(res.Cycles, res.IPC())
//
// See examples/ for complete programs and cmd/experiments for the
// harness that regenerates every table and figure of the paper.
package cmpsim

import (
	"io"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
	"cmpsim/internal/stats"
	"cmpsim/internal/workload"
)

// Arch selects one of the three architecture compositions of Section 2.
type Arch = core.Arch

// The three architectures under study.
const (
	SharedL1  = core.SharedL1  // shared 64KB L1 D-cache behind a crossbar
	SharedL2  = core.SharedL2  // private write-through L1s, shared banked L2
	SharedMem = core.SharedMem // private L1+L2 per CPU, snoopy bus
)

// Architectures returns the three architectures in the paper's order.
func Architectures() []Arch { return core.Arches() }

// CPUModel selects the processor simulator.
type CPUModel = core.CPUModel

// The two CPU models of Section 3.1.
const (
	ModelMipsy = core.ModelMipsy // in-order, 1-cycle results, blocking memory
	ModelMXS   = core.ModelMXS   // 2-way dynamic superscalar, speculative, non-blocking
)

// Config carries every memory-system parameter (Table 2 latencies, cache
// geometries, structural limits). DefaultConfig returns the paper's
// values.
type Config = memsys.Config

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config { return memsys.DefaultConfig() }

// Machine is a composed simulated system (architecture + CPUs + memory +
// guest programs). Most users never need it directly — RunWorkload
// handles the lifecycle — but custom guest programs are loaded through
// it; see examples/custom-workload.
type Machine = core.Machine

// NewMachine builds a bare machine for custom guest programs: pick an
// architecture and CPU model, load programs with Machine.LoadProgram,
// add hardware contexts with Machine.AddContext, then call Machine.Run.
func NewMachine(arch Arch, model CPUModel, cfg Config, memBytes uint32) (*Machine, error) {
	return core.NewMachine(arch, model, cfg, memBytes)
}

// Result summarizes a completed simulation run.
type Result = core.RunResult

// Workload is one of the paper's seven benchmarks (or a user-defined
// one): it configures a machine and validates the guest's results
// against a host-side reference implementation.
type Workload = workload.Workload

// Workloads lists the built-in workload names.
func Workloads() []string { return workload.Names() }

// NewWorkload returns a built-in workload with its paper-scale defaults:
// "eqntott", "mp3d", "ocean", "volpack", "ear", "fft" or "pmake".
func NewWorkload(name string) (Workload, error) { return workload.New(name) }

// RunWorkload builds a machine for (workload, architecture, CPU model),
// runs it to completion, validates the results against the workload's Go
// reference, and returns the run statistics. cfg overrides the
// memory-system parameters; nil uses the paper's defaults.
func RunWorkload(w Workload, arch Arch, model CPUModel, cfg *Config) (*Result, error) {
	return workload.Run(w, arch, model, cfg)
}

// Breakdown is the execution-time decomposition used by the paper's
// per-application figures.
type Breakdown = stats.Breakdown

// BreakdownOf computes the execution-time decomposition of a run.
func BreakdownOf(r *Result) Breakdown { return stats.FromRun(r) }

// Figure is a reproduction of one of the paper's per-application
// figures: the three architectures' breakdowns, normalized to the
// shared-memory baseline.
type Figure = stats.Figure

// BuildFigure assembles a Figure from per-architecture runs (the
// shared-memory run is required as the normalization baseline).
func BuildFigure(name, workloadName string, model CPUModel, runs map[Arch]*Result) Figure {
	return stats.BuildFigure(name, workloadName, model, runs)
}

// IPCRow is one bar of the paper's Figure 11: achieved per-CPU IPC and
// the apportioned losses.
type IPCRow = stats.IPCRow

// IPCBreakdownOf computes a Figure 11 row from an MXS run.
func IPCBreakdownOf(r *Result) IPCRow { return stats.IPCBreakdown(r) }

// --- observability (package obsv) ---

// Tracer receives cycle-accurate simulator events. Install one in
// Config.Trace before building a machine; the disabled (nil) fast path
// costs a single pointer check per event site.
type Tracer = obsv.Tracer

// TraceEvent is one trace record (flat value type, allocation-free).
type TraceEvent = obsv.Event

// TraceRing is the standard Tracer: a bounded in-memory ring buffer
// keeping the most recent events.
type TraceRing = obsv.Ring

// NewTraceRing returns a ring tracer holding the last capacity events.
func NewTraceRing(capacity int) *TraceRing { return obsv.NewRing(capacity) }

// WriteChromeTrace writes events in the Chrome trace-event format,
// loadable in chrome://tracing and Perfetto (one track per CPU, one per
// shared resource).
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obsv.WriteChromeTrace(w, events)
}

// WriteTraceJSONL writes events as JSON Lines, the input format of
// cmd/tracestats.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	return obsv.WriteJSONL(w, events)
}

// Metrics is the interval sampler: set Config.Metrics to a NewMetrics
// collector and the run produces a time-series of per-CPU IPC, miss
// rates, resource utilization and MSHR occupancy, plus latency
// histograms (Result.Metrics).
type Metrics = obsv.Metrics

// Sample is one interval of the metrics time-series.
type Sample = obsv.Sample

// NewMetrics returns a collector sampling every interval cycles.
func NewMetrics(interval uint64) *Metrics { return obsv.NewMetrics(interval) }

// --- guest-level profiling (package prof) ---

// Profiler is the guest-level cycle-attribution profiler: set
// Config.Prof to a NewProfiler instance and the run charges every busy
// and stall cycle to the guest PC responsible, and records per-cache-
// line sharing behavior (misses, invalidations, cache-to-cache
// transfers by writer→reader CPU pair). The disabled (nil) fast path
// costs a single pointer check per site. A job carrying a profiler is
// never served from the result cache.
type Profiler = prof.Profiler

// NewProfiler returns a profiler for a machine with numCPUs processors
// and lineBytes-sized cache lines (pass Config.NumCPUs and
// Config.LineBytes).
func NewProfiler(numCPUs int, lineBytes uint32) *Profiler {
	return prof.New(numCPUs, lineBytes)
}

// Profile is a completed run's profile snapshot (Result.Profile):
// per-PC and per-function cycle attribution with per-level stall
// splits, the cache-line sharing table with false-sharing candidates,
// and the guest symbol table used for attribution. Render with
// WriteReport / WriteFolded, or serialize with WriteJSON.
type Profile = prof.Profile

// ReadProfile deserializes a profile written by Profile.WriteJSON.
func ReadProfile(r io.Reader) (*Profile, error) { return prof.ReadProfile(r) }
