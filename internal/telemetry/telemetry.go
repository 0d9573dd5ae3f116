// Package telemetry is the worker pool's job log: internal/runner's
// Pool, given a *RunnerMetrics in Pool.Telem, appends one JobRecord per
// finished job (tag, wall-clock seconds, simulated cycles, cached,
// failed) and records the worker count of each Run. The campaign
// commands (cmd/experiments, cmd/sweep) turn the log into the
// deterministic end-of-campaign run report behind -run-report and
// -run-report-out.
//
// It observes the host, not the guest: every number here is wall-clock
// time or a finished job's result, and no simulator package imports it,
// so nothing here can reach simulated state. With no report asked for
// the pool holds a nil *RunnerMetrics, and the disabled cost is one nil
// check per job.
package telemetry

import (
	"sync"
	"time"
)

// JobRecord is one finished job's host-side summary.
type JobRecord struct {
	Tag       string  `json:"tag"`
	Seconds   float64 `json:"seconds"`
	SimCycles uint64  `json:"sim_cycles"`
	Cached    bool    `json:"cached,omitempty"`
	Failed    bool    `json:"failed,omitempty"`
}

// RunnerMetrics is the job log the pool writes from its worker
// goroutines; all methods are concurrency-safe.
type RunnerMetrics struct {
	mu      sync.Mutex
	jobs    []JobRecord
	workers int
}

// SetWorkers records the worker count of the pool's latest Run.
func (m *RunnerMetrics) SetWorkers(n int) {
	m.mu.Lock()
	m.workers = n
	m.mu.Unlock()
}

// RecordJob appends one finished job's record.
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

// Set is one campaign's job log and the time it started.
type Set struct {
	Runner *RunnerMetrics

	start time.Time
}

// New starts a campaign's job log; point Pool.Telem at its Runner.
func New() *Set {
	return &Set{Runner: &RunnerMetrics{}, start: time.Now()}
}
