// Package runner is the driver-level parallel experiment engine: it
// shards independent simulation runs across a deterministic worker
// pool and memoizes their results in a config-hash-keyed on-disk
// cache.
//
// The simulation core (internal/{core, memsys, cpu, ...}) is strictly
// single-threaded per machine — the simlint determinism analyzer
// forbids goroutines inside it — but distinct runs share no mutable
// state, so a (workload × architecture × CPU model × config) grid is
// embarrassingly parallel. The runner exploits exactly that boundary:
// every Job builds its own fully-isolated machine (memory system,
// CPUs, guest programs, tracers) inside one worker goroutine, results
// travel back through per-job channels, and the pool merges them in
// stable job order, so a parallel run is bit-identical to a serial
// one. cmd/experiments, cmd/sweep and cmd/cmpsim all dispatch through
// this package.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/telemetry"
	"cmpsim/internal/workload"
)

// Job describes one independent simulation run: a fresh workload
// instance on one architecture under one CPU model and configuration.
type Job struct {
	// Workload constructs a fresh workload instance for this run. It is
	// called inside the worker, must not share mutable state with other
	// jobs, and must build the same workload every time it is called
	// (the cache relies on WorkloadKey naming it uniquely).
	Workload func() (workload.Workload, error)

	// WorkloadKey identifies the workload and its parameters for the
	// result cache (e.g. "eqntott/quick"). Jobs with an empty key are
	// never cached.
	WorkloadKey string

	Arch  core.Arch
	Model core.CPUModel

	// Cfg is this job's private memory-system configuration. Runtime
	// attachments (Trace, Metrics, Check) must be per-job instances —
	// two jobs sharing one ring or checker would interleave their
	// events. A job carrying any non-nil attachment, or a non-nil
	// SharedData classifier, bypasses the cache (attachments are not
	// part of the cache key; SharedData cannot be hashed).
	Cfg memsys.Config

	// Tag is a filename-safe label for messages and per-job sink paths
	// ("figure-5-mp3d-shared-l1").
	Tag string
}

// Result is the outcome of one Job, in the same slice position.
type Result struct {
	Res    *core.RunResult
	Err    error
	Cached bool // satisfied from the result cache without simulating
}

// Pool runs batches of jobs. The zero value runs serially without a
// cache; set Workers for parallelism and Cache for memoization.
type Pool struct {
	// Workers caps concurrent simulations; the effective count is
	// min(Workers, len(jobs)). <= 0 means GOMAXPROCS (all cores). An
	// explicit count above GOMAXPROCS is honored rather than clamped:
	// runs are CPU-bound so it buys nothing, but it lets single-core
	// machines still exercise the pool's interleaving under -race.
	Workers int

	// Cache, when non-nil, memoizes results keyed by the canonical hash
	// of (sim version, workload key, arch, model, config fingerprint).
	Cache *Cache

	// Progress, when non-nil, receives one line per completed job —
	// "[k/n] tag 1.234s" plus "(cached)" for cache hits and "(error)"
	// for failures — in completion order, as jobs finish. Point it at
	// stderr (the -progress flag of the cmd tools does) so stdout
	// stays byte-identical to a progress-less run; the result slice
	// itself is unaffected.
	Progress io.Writer

	// Telem, when non-nil, is the job log behind the end-of-campaign run
	// report: one record per finished job (wall clock, simulated cycles,
	// cached, failed) and the worker count of each Run. The disabled
	// path costs one pointer check per job.
	Telem *telemetry.RunnerMetrics

	mu      sync.Mutex // guards done (Progress lines from worker goroutines)
	done    int
	started time.Time // start of the current Run, for progress rate/ETA
}

// Run executes every job and returns their results in job order.
// Output is deterministic: the merged results are bit-identical
// regardless of the worker count, because each job's machine is fully
// isolated and results are reassembled positionally, not in completion
// order. Individual failures land in Result.Err; Run itself never
// panics on a failed job.
func (p *Pool) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	n := len(jobs)
	if n == 0 {
		return results
	}
	p.mu.Lock()
	p.done = 0
	p.started = time.Now()
	p.mu.Unlock()
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if p.Telem != nil {
		p.Telem.SetWorkers(workers)
	}
	if workers == 1 {
		for i := range jobs {
			results[i] = p.runJob(n, &jobs[i])
		}
		return results
	}

	// Per-job result channels: workers complete in any order, the merge
	// below reads channel 0, 1, 2, ... so results land in job order.
	out := make([]chan Result, n)
	for i := range out {
		out[i] = make(chan Result, 1)
	}
	next := make(chan int)
	for range workers {
		go func() {
			for i := range next {
				out[i] <- p.runJob(n, &jobs[i])
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	for i := range out {
		results[i] = <-out[i]
	}
	return results
}

// runJob executes one job, reports its completion to Progress, and
// appends it to the job log.
func (p *Pool) runJob(total int, job *Job) Result {
	start := time.Now()
	res := p.execJob(job)
	wall := time.Since(start)
	if t := p.Telem; t != nil {
		var cycles uint64
		if res.Res != nil {
			cycles = res.Res.Cycles
		}
		t.RecordJob(telemetry.JobRecord{
			Tag:       job.Tag,
			Seconds:   wall.Seconds(),
			SimCycles: cycles,
			Cached:    res.Cached,
			Failed:    res.Err != nil,
		})
	}
	if p.Progress != nil {
		status := ""
		switch {
		case res.Err != nil:
			status = " (error)"
		case res.Cached:
			status = " (cached)"
		}
		// Count and print under one lock so the [k/n] numbering matches
		// the line order even when workers finish simultaneously.
		p.mu.Lock()
		p.done++
		elapsed := time.Since(p.started)
		rate := 0.0
		if es := elapsed.Seconds(); es > 0 {
			rate = float64(p.done) / es
		}
		eta := "?"
		if rate > 0 {
			eta = time.Duration(float64(total-p.done) / rate * float64(time.Second)).
				Round(100 * time.Millisecond).String()
		}
		fmt.Fprintf(p.Progress, "[%d/%d] %s %s%s | %s elapsed, %.1f jobs/s, eta %s\n",
			p.done, total, job.Tag, wall.Round(time.Millisecond), status,
			elapsed.Round(100*time.Millisecond), rate, eta)
		p.mu.Unlock()
	}
	return res
}

// execJob executes one job: cache probe, simulate on miss, fill.
func (p *Pool) execJob(job *Job) Result {
	var key string
	cacheable := p.Cache != nil && Cacheable(job)
	if cacheable {
		key = Key(job)
		res, ok, err := p.Cache.Get(key)
		if err != nil {
			return Result{Err: fmt.Errorf("runner: %s: cache read: %w", job.Tag, err)}
		}
		if ok {
			return Result{Res: res, Cached: true}
		}
	}
	w, err := job.Workload()
	if err != nil {
		return Result{Err: fmt.Errorf("runner: %s: %w", job.Tag, err)}
	}
	cfg := job.Cfg
	res, err := workload.Run(w, job.Arch, job.Model, &cfg)
	if err != nil {
		return Result{Err: fmt.Errorf("runner: %s: %w", job.Tag, err)}
	}
	if cacheable {
		if err := p.Cache.Put(key, res); err != nil {
			// A cache-write failure must not pass silently (the next
			// invocation would quietly re-simulate), but the computed
			// result is still good; hand both back.
			return Result{Res: res, Err: fmt.Errorf("runner: %s: cache write: %w", job.Tag, err)}
		}
	}
	return Result{Res: res}
}

// FirstErr returns the first job error in job order, or nil. Drivers
// use it to turn any failed or unfillable cell into a non-zero exit.
func FirstErr(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}
