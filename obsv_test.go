// End-to-end tests for the observability layer: the interval sampler
// must reconcile with the end-of-run memory report on every
// architecture, and the disabled instrumentation path must cost nothing.
package cmpsim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"cmpsim"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/workload"
)

func eqntottSmall() cmpsim.Workload {
	return workload.NewEqntott(workload.EqntottParams{Words: 64, Iters: 20})
}

// TestIntervalMetricsReconcileWithReport checks the sampler's books on
// all three architectures: summing the per-interval access/miss deltas
// must reproduce the end-of-run memsys.Report aggregates exactly, and
// per-CPU interval instruction counts must sum to the run's total.
func TestIntervalMetricsReconcileWithReport(t *testing.T) {
	for _, arch := range cmpsim.Architectures() {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			t.Parallel()
			cfg := memsys.DefaultConfig()
			cfg.Metrics = cmpsim.NewMetrics(5000)
			res, err := cmpsim.RunWorkload(eqntottSmall(), arch, cmpsim.ModelMipsy, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics == nil {
				t.Fatal("run did not return the metrics collector")
			}
			samples := res.Metrics.Samples()
			if len(samples) < 2 {
				t.Fatalf("only %d samples for a %d-cycle run", len(samples), res.Cycles)
			}
			var insts, l1a, l1m, l2a, l2m uint64
			prevEnd := uint64(0)
			for i, s := range samples {
				if s.Start != prevEnd || s.End <= s.Start {
					t.Fatalf("sample %d has bad bounds [%d,%d) after %d", i, s.Start, s.End, prevEnd)
				}
				prevEnd = s.End
				insts += s.Insts
				l1a += s.L1DAcc
				l1m += s.L1DMiss
				l2a += s.L2Acc
				l2m += s.L2Miss
			}
			if last := samples[len(samples)-1].End; last != res.Cycles {
				t.Errorf("final sample ends at %d, run at %d (missing tail flush)", last, res.Cycles)
			}
			rep := res.MemReport
			if l1a != rep.L1D.Accesses() || l1m != rep.L1D.Misses() {
				t.Errorf("L1D interval sums %d/%d != report %d/%d",
					l1a, l1m, rep.L1D.Accesses(), rep.L1D.Misses())
			}
			if l2a != rep.L2.Accesses() || l2m != rep.L2.Misses() {
				t.Errorf("L2 interval sums %d/%d != report %d/%d",
					l2a, l2m, rep.L2.Accesses(), rep.L2.Misses())
			}
			if insts != res.Instructions() {
				t.Errorf("interval insts %d != run total %d", insts, res.Instructions())
			}
			if res.Metrics.Hist().Count[0] == 0 {
				t.Error("latency histogram saw no L1 accesses")
			}
		})
	}
}

// TestShortRunFlushesPartialInterval is the short-run satellite at
// system level: an interval longer than the whole run must still yield
// exactly one (partial) sample covering it.
func TestShortRunFlushesPartialInterval(t *testing.T) {
	cfg := memsys.DefaultConfig()
	cfg.Metrics = cmpsim.NewMetrics(1 << 40)
	res, err := cmpsim.RunWorkload(eqntottSmall(), cmpsim.SharedL2, cmpsim.ModelMipsy, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := res.Metrics.Samples()
	if len(samples) != 1 {
		t.Fatalf("short run produced %d samples, want 1", len(samples))
	}
	if s := samples[0]; s.Start != 0 || s.End != res.Cycles || s.Insts != res.Instructions() {
		t.Errorf("partial sample %+v does not cover run (%d cycles, %d insts)",
			s, res.Cycles, res.Instructions())
	}
}

// TestTracedRunEmitsLoadableChromeTrace runs a traced workload end to
// end and validates the Chrome trace a user would open in Perfetto.
func TestTracedRunEmitsLoadableChromeTrace(t *testing.T) {
	cfg := memsys.DefaultConfig()
	ring := cmpsim.NewTraceRing(1 << 18)
	cfg.Trace = ring
	res, err := cmpsim.RunWorkload(eqntottSmall(), cmpsim.SharedL2, cmpsim.ModelMipsy, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("traced run emitted no events")
	}
	kinds := map[obsv.EventKind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Cycle > res.Cycles {
			t.Fatalf("event %v beyond the run's last cycle %d", ev, res.Cycles)
		}
	}
	for _, k := range []obsv.EventKind{obsv.EvLoad, obsv.EvStore, obsv.EvGrant, obsv.EvMSHRAlloc} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in a full traced run", k)
		}
	}
	var buf bytes.Buffer
	if err := cmpsim.WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	last := -1.0
	for _, ev := range trace.TraceEvents {
		ts, ok := ev["ts"].(float64)
		if !ok {
			continue // metadata
		}
		if ts < last {
			t.Fatalf("trace timestamps regress: %v after %v", ts, last)
		}
		last = ts
	}
}

// TestDisabledPathDoesNotAllocate proves the nil-tracer fast path of a
// steady-state L1 hit performs zero heap allocations.
func TestDisabledPathDoesNotAllocate(t *testing.T) {
	s := memsys.NewSharedL2(memsys.DefaultConfig())
	now := warmLine(s)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 4
		if _, ok := s.Access(now, 0, 0x4000, false); !ok {
			t.Fatal("steady-state read hit refused")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-tracing access allocates %v per op, want 0", allocs)
	}
}

// warmLine faults one line into CPU 0's L1 and returns a cycle safely
// past the fill, so subsequent reads are 1-cycle hits.
func warmLine(s memsys.System) uint64 {
	res, _ := s.Access(0, 0, 0x4000, false)
	return res.Done + 100
}

// BenchmarkTracerDisabled measures the cost of instrumented-but-
// disabled code: steady-state L1 read hits through the SharedL2 system
// with a nil tracer. The acceptance bar is 0 allocs/op; the per-event
// overhead of the nil check itself is measured by the delta against the
// pre-instrumentation seed benchmarks.
func BenchmarkTracerDisabled(b *testing.B) {
	s := memsys.NewSharedL2(memsys.DefaultConfig())
	now := warmLine(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 4
		if _, ok := s.Access(now, 0, 0x4000, false); !ok {
			b.Fatal("read hit refused")
		}
	}
}

// BenchmarkTracerRing is the enabled-path companion: the same loop with
// a live ring tracer, to quantify what turning tracing on costs.
func BenchmarkTracerRing(b *testing.B) {
	cfg := memsys.DefaultConfig()
	cfg.Trace = obsv.NewRing(1 << 16)
	s := memsys.NewSharedL2(cfg)
	now := warmLine(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 4
		if _, ok := s.Access(now, 0, 0x4000, false); !ok {
			b.Fatal("read hit refused")
		}
	}
}
