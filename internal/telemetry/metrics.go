package telemetry

import (
	"sync"
	"time"
)

// RunnerMetrics is the internal/runner worker pool's instrument panel.
// The pool holds a nil *RunnerMetrics when telemetry is off (every
// update site is nil-guarded); New wires an enabled instance into the
// registry. All fields are updated with single atomic operations from
// worker goroutines.
//
// Every metric field must be registered in register — the statreg lint
// analyzer flags a telemetry metric field that is incremented but never
// exported.
type RunnerMetrics struct {
	JobsTotal     Counter   // jobs submitted to the pool, cumulative across Run calls
	JobsStarted   Counter   // jobs picked up by a worker
	JobsCompleted Counter   // jobs finished (simulated, cached or failed)
	JobsFailed    Counter   // jobs that finished with an error
	QueueDepth    Gauge     // submitted jobs not yet picked up
	Workers       Gauge     // worker goroutines of the most recent Run call
	JobSeconds    Histogram // per-job wall clock, seconds
	WorkerBusy    *CounterVec

	CacheHits    Counter // result-cache probes satisfied without simulating
	CacheMisses  Counter // probes that fell through to simulation
	CacheCorrupt Counter // probes that failed on an unreadable or corrupt entry

	// Attachment accounting: jobs carrying guest-observability
	// instruments run slower and bypass the cache, so a farm operator
	// wants them visible.
	JobsTraced   Counter // jobs with an event tracer attached
	JobsSampled  Counter // jobs with an interval-metrics sampler attached
	JobsProfiled Counter // jobs with a cycle-attribution profiler attached
	JobsChecked  Counter // jobs with the runtime sanitizer attached
	TraceEvents  Counter // trace events emitted by completed jobs' rings
	TraceDropped Counter // trace events dropped by completed jobs' rings

	mu   sync.Mutex
	jobs []JobRecord
}

// register wires every metric into the registry under its exported
// name. The &field arguments are the statreg analyzer's evidence that a
// counter is exported.
func (m *RunnerMetrics) register(r *Registry) {
	r.Counter("sim_jobs_total", "simulation jobs submitted to the worker pool", &m.JobsTotal)
	r.Counter("sim_jobs_started_total", "jobs picked up by a worker", &m.JobsStarted)
	r.Counter("sim_jobs_completed_total", "jobs finished (simulated, cached or failed)", &m.JobsCompleted)
	r.Counter("sim_jobs_failed_total", "jobs that finished with an error", &m.JobsFailed)
	r.Gauge("sim_job_queue_depth", "submitted jobs not yet picked up by a worker", &m.QueueDepth)
	r.Gauge("sim_workers", "worker goroutines of the current pool run", &m.Workers)
	r.Histogram("sim_job_wall_seconds", "per-job wall-clock time", DurationBuckets(), &m.JobSeconds)
	m.WorkerBusy = r.CounterVec("sim_worker_busy_nanoseconds_total", "wall-clock nanoseconds each worker spent executing jobs", "worker")
	r.Counter("sim_cache_hits_total", "result-cache probes satisfied without simulating", &m.CacheHits)
	r.Counter("sim_cache_misses_total", "result-cache probes that fell through to simulation", &m.CacheMisses)
	r.Counter("sim_cache_corrupt_total", "result-cache probes that failed on an unreadable or corrupt entry", &m.CacheCorrupt)
	r.Counter("sim_jobs_traced_total", "jobs carrying an event tracer", &m.JobsTraced)
	r.Counter("sim_jobs_sampled_total", "jobs carrying an interval-metrics sampler", &m.JobsSampled)
	r.Counter("sim_jobs_profiled_total", "jobs carrying a cycle-attribution profiler", &m.JobsProfiled)
	r.Counter("sim_jobs_checked_total", "jobs carrying the runtime sanitizer", &m.JobsChecked)
	r.Counter("sim_trace_events_total", "trace events emitted by completed jobs", &m.TraceEvents)
	r.Counter("sim_trace_dropped_total", "trace events dropped by completed jobs' rings", &m.TraceDropped)
}

// JobRecord is one completed job's host-side summary, recorded by the
// pool for the end-of-campaign run report.
type JobRecord struct {
	Tag       string  `json:"tag"`
	Seconds   float64 `json:"seconds"`
	SimCycles uint64  `json:"sim_cycles"`
	Cached    bool    `json:"cached,omitempty"`
	Failed    bool    `json:"failed,omitempty"`
}

// RecordJob appends one completed job's record (concurrency-safe).
func (m *RunnerMetrics) RecordJob(rec JobRecord) {
	m.mu.Lock()
	m.jobs = append(m.jobs, rec)
	m.mu.Unlock()
}

// Jobs returns a copy of the recorded jobs in completion order.
func (m *RunnerMetrics) Jobs() []JobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobRecord, len(m.jobs))
	copy(out, m.jobs)
	return out
}

// SimMetrics is the core cycle loop's instrument panel, carried to
// every machine through memsys.Config.Telem (a shared pointer: all
// concurrent runs of a campaign accumulate into one panel). The cycle
// loop batches updates locally and flushes them with a handful of
// atomic adds per flush window, so the per-cycle cost is one branch.
type SimMetrics struct {
	CyclesTicked  Counter // cycle-loop iterations actually executed
	CyclesSkipped Counter // cycles fast-forwarded by the quiescence-skipping scheduler
	Windows       Counter // RunWindow invocations
}

// register wires the cycle-loop metrics into the registry.
func (m *SimMetrics) register(r *Registry) {
	r.Counter("sim_cycles_ticked_total", "cycle-loop iterations executed across all runs", &m.CyclesTicked)
	r.Counter("sim_cycles_skipped_total", "cycles fast-forwarded by the quiescence-skipping scheduler", &m.CyclesSkipped)
	r.Counter("sim_windows_total", "core RunWindow invocations", &m.Windows)
}

// Cycles returns total simulated cycles advanced (ticked + skipped) —
// the numerator of the host sim-cycles/sec throughput figure.
func (m *SimMetrics) Cycles() uint64 {
	return m.CyclesTicked.Value() + m.CyclesSkipped.Value()
}

// Set bundles one campaign's registry and instrument panels. Drivers
// create one Set per process, point the pool at Runner and every job
// config at Sim, and expose the registry through Serve, StartHeartbeat
// and BuildReport.
type Set struct {
	Reg    *Registry
	Runner *RunnerMetrics
	Sim    *SimMetrics

	start time.Time
}

// New builds a Set with every metric registered.
func New() *Set {
	s := &Set{
		Reg:    NewRegistry(),
		Runner: &RunnerMetrics{},
		Sim:    &SimMetrics{},
		start:  time.Now(),
	}
	s.Runner.register(s.Reg)
	s.Sim.register(s.Reg)
	return s
}

// Elapsed returns wall time since the Set was created.
func (s *Set) Elapsed() time.Duration { return time.Since(s.start) }
