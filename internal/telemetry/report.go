package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// RunReport is the end-of-campaign summary printed by
// cmd/experiments. Every field is a function of the job log and the
// elapsed time, and the rendering is sorted, so two reports built from
// the same log and elapsed time are byte-identical — which is what the
// golden-file test pins down.
type RunReport struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// JobsTotal counts the logged jobs; JobsCompleted those that
	// returned a result without error, JobsFailed the rest.
	JobsTotal     int `json:"jobs_total"`
	JobsCompleted int `json:"jobs_completed"`
	JobsFailed    int `json:"jobs_failed"`

	CacheHits int `json:"cache_hits"` // jobs answered from the result cache

	// SimCyclesPerSec is the simulated cycles of the uncached jobs over
	// the elapsed time: a cache hit simulates nothing.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`

	Workers     int     `json:"workers"`
	Utilization float64 `json:"utilization"` // job seconds / (elapsed * workers)

	// JobWallP50/P95 are nearest-rank quantiles of the per-job wall
	// clock, in seconds: each is one job's own time.
	JobWallP50 float64 `json:"job_wall_p50"`
	JobWallP95 float64 `json:"job_wall_p95"`

	// Jobs lists the logged jobs sorted by tag (ties by completion
	// order) so the report is independent of worker scheduling.
	Jobs []JobRecord `json:"jobs"`
}

// BuildReport summarizes the job log for the given campaign wall time.
// Elapsed is a parameter, not read from the clock, so tests can build
// reports with a fixed value and golden-match the rendering.
func (s *Set) BuildReport(elapsed time.Duration) *RunReport {
	m := s.Runner
	m.mu.Lock()
	workers := m.workers
	m.mu.Unlock()
	r := &RunReport{
		ElapsedSeconds: elapsed.Seconds(),
		Workers:        workers,
		Jobs:           m.Jobs(),
	}
	r.JobsTotal = len(r.Jobs)
	secs := make([]float64, 0, len(r.Jobs))
	var busy, cycles float64
	for _, j := range r.Jobs {
		if j.Failed {
			r.JobsFailed++
		}
		if j.Cached {
			r.CacheHits++
		} else {
			cycles += float64(j.SimCycles)
		}
		secs = append(secs, j.Seconds)
		busy += j.Seconds
	}
	r.JobsCompleted = r.JobsTotal - r.JobsFailed
	if r.ElapsedSeconds > 0 {
		r.SimCyclesPerSec = cycles / r.ElapsedSeconds
		if r.Workers > 0 {
			r.Utilization = busy / (r.ElapsedSeconds * float64(r.Workers))
		}
	}
	sort.Float64s(secs)
	r.JobWallP50 = nearestRank(secs, 0.50)
	r.JobWallP95 = nearestRank(secs, 0.95)
	sort.SliceStable(r.Jobs, func(i, j int) bool { return r.Jobs[i].Tag < r.Jobs[j].Tag })
	return r
}

// nearestRank returns the q-quantile (0..1) of ascending values: the
// smallest value that at least q of them do not exceed. Zero when empty.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// f3 renders a float with 3 decimals — enough resolution for a human
// report, stable across platforms.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// WriteText renders the report as aligned text.
func (r *RunReport) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("== run report ==\n")
	p("wall time          %ss\n", f3(r.ElapsedSeconds))
	p("jobs               %d total, %d completed, %d failed\n", r.JobsTotal, r.JobsCompleted, r.JobsFailed)
	p("cache hits         %d\n", r.CacheHits)
	p("host throughput    %s sim-cycles/s\n", f3(r.SimCyclesPerSec))
	p("workers            %d (utilization %s)\n", r.Workers, f3(r.Utilization))
	p("job wall clock     p50 %ss, p95 %ss\n", f3(r.JobWallP50), f3(r.JobWallP95))
	if len(r.Jobs) > 0 {
		p("jobs by tag:\n")
		for _, j := range r.Jobs {
			note := ""
			if j.Cached {
				note = " (cached)"
			}
			if j.Failed {
				note = " (FAILED)"
			}
			cps := 0.0
			if j.Seconds > 0 {
				cps = float64(j.SimCycles) / j.Seconds
			}
			p("  %-40s %ss %12d cycles %14s cyc/s%s\n",
				j.Tag, f3(j.Seconds), j.SimCycles, f3(cps), note)
		}
	}
	return err
}

// WriteJSON renders the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteReport is the -run-report/-run-report-out glue of the commands: it
// builds the report of the campaign so far and writes it as text to
// stderr when text is set and as JSON to path when path is not empty.
func (s *Set) WriteReport(text bool, path string) error {
	r := s.BuildReport(time.Since(s.start))
	if text {
		if err := r.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err == nil {
		err = r.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("telemetry: run report: %w", err)
	}
	return nil
}
