package obsv

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cmpsim/internal/event"
)

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		lat    uint64
		bucket int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{16, 4}, {17, 5}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := bucketOf(c.lat); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.lat, got, c.bucket)
		}
		if c.lat > BucketCeil(c.bucket) {
			t.Errorf("latency %d above its bucket ceil %d", c.lat, BucketCeil(c.bucket))
		}
		if c.bucket > 0 && c.lat <= BucketCeil(c.bucket-1) {
			t.Errorf("latency %d fits the previous bucket (ceil %d)", c.lat, BucketCeil(c.bucket-1))
		}
	}
}

func TestHistMeanAndQuantile(t *testing.T) {
	var h LatencyHist
	// 90 fast hits, 10 slow misses at level 1.
	for i := 0; i < 90; i++ {
		h.Observe(1, 4)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1, 100)
	}
	if got, want := h.Mean(1), (90*4.0+10*100.0)/100; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if got := h.Quantile(1, 0.50); got != 4 {
		t.Errorf("p50 = %d, want 4", got)
	}
	// p99 lands in the 100-latency bucket: (64, 128].
	if got := h.Quantile(1, 0.99); got != 128 {
		t.Errorf("p99 = %d, want 128", got)
	}
	if h.Mean(3) != 0 || h.Quantile(3, 0.5) != 0 {
		t.Error("untouched level must report zero")
	}
	h.Observe(maxLevels, 1) // out of range: ignored, not a panic
	if !strings.Contains(h.String(), "L2") {
		t.Errorf("String() missing observed level:\n%s", h.String())
	}
}

func probeAt(cycle uint64, insts []uint64, l1dAcc, l1dMiss, l2Acc, l2Miss uint64) Probe {
	return Probe{
		Cycle:       cycle,
		PerCPUInsts: insts,
		L1DAcc:      l1dAcc, L1DMiss: l1dMiss,
		L2Acc: l2Acc, L2Miss: l2Miss,
		Resources: []ResProbe{{Name: "bus", Acquires: l2Acc, Busy: 10 * l2Acc}},
	}
}

// TestMetricsIntervalLifecycle: the armed sampler is one event, due at
// the front of the cycle after each boundary, that probes the boundary
// cycle and re-arms itself Interval cycles later.
func TestMetricsIntervalLifecycle(t *testing.T) {
	m := NewMetrics(100)
	var q event.Queue
	probes := map[uint64]Probe{
		100: probeAt(100, []uint64{80, 40}, 30, 6, 6, 3),
		200: probeAt(200, []uint64{200, 100}, 90, 12, 12, 4),
	}
	var asked []uint64
	m.Arm(&q, func(c uint64) Probe {
		asked = append(asked, c)
		return probes[c]
	})
	if next, ok := q.NextCycle(); !ok || next != 101 {
		t.Fatalf("first sample event at %d, %v; want 101", next, ok)
	}
	q.Schedule(101, func(uint64) {
		if len(asked) != 1 {
			t.Error("an event scheduled after the sampler fired ahead of it")
		}
	})
	q.RunUntil(100)
	if len(asked) != 0 {
		t.Fatalf("sampled at %v before its cycle", asked)
	}
	q.RunUntil(201)
	if want := []uint64{100, 200}; !reflect.DeepEqual(asked, want) {
		t.Fatalf("probed cycles %v, want %v", asked, want)
	}
	if next, _ := q.NextCycle(); next != 301 {
		t.Errorf("re-armed for cycle %d, want 301", next)
	}

	ss := m.Samples()
	if len(ss) != 2 {
		t.Fatalf("samples = %d, want 2", len(ss))
	}
	s0, s1 := ss[0], ss[1]
	if s0.Start != 0 || s0.End != 100 || s1.Start != 100 || s1.End != 200 {
		t.Fatalf("bounds: [%d,%d) [%d,%d)", s0.Start, s0.End, s1.Start, s1.End)
	}
	// First interval is absolute; second is the delta.
	if s0.Insts != 120 || s0.IPC != 1.2 {
		t.Errorf("s0 insts=%d ipc=%v", s0.Insts, s0.IPC)
	}
	if s1.Insts != 180 || s1.IPC != 1.8 {
		t.Errorf("s1 insts=%d ipc=%v", s1.Insts, s1.IPC)
	}
	if s1.PerCPU[0].Insts != 120 || s1.PerCPU[1].Insts != 60 {
		t.Errorf("s1 per-cpu = %+v", s1.PerCPU)
	}
	if s1.L1DAcc != 60 || s1.L1DMiss != 6 || s1.L2Acc != 6 || s1.L2Miss != 1 {
		t.Errorf("s1 mem deltas: %+v", s1)
	}
	if got := s1.L1DMissRate(); got != 0.1 {
		t.Errorf("s1 L1D miss rate = %v", got)
	}
	if r := s1.Resources[0]; r.Acquires != 6 || r.Busy != 60 || r.Util != 0.6 {
		t.Errorf("s1 resource = %+v", r)
	}
}

// TestMetricsFlushPartialInterval is the short-run satellite: a run that
// ends before the first boundary must still produce one sample.
func TestMetricsFlushPartialInterval(t *testing.T) {
	m := NewMetrics(1_000_000)
	m.Flush(probeAt(4242, []uint64{4000}, 1000, 100, 100, 50))
	ss := m.Samples()
	if len(ss) != 1 {
		t.Fatalf("flushed samples = %d, want 1", len(ss))
	}
	if ss[0].Start != 0 || ss[0].End != 4242 || ss[0].Insts != 4000 {
		t.Errorf("flushed sample = %+v", ss[0])
	}
	// Idempotent: a second flush (or a later stray one) adds nothing.
	m.Flush(probeAt(5000, []uint64{5000}, 1100, 110, 110, 55))
	if len(m.Samples()) != 1 {
		t.Errorf("second flush added a sample")
	}
}

// TestMetricsFinishTakesOwedSample: a run whose last window ended right
// after a due cycle, before the sample's event could fire, still gets
// that sample from Finish, then the partial interval up to the end.
func TestMetricsFinishTakesOwedSample(t *testing.T) {
	for _, tc := range []struct {
		end  uint64
		ends []uint64
	}{
		{100, []uint64{100}},      // ends on the due cycle: the flush is the sample
		{101, []uint64{100, 101}}, // the sample's event at 101 never ran
		{150, []uint64{100, 150}},
	} {
		m := NewMetrics(100)
		var q event.Queue
		probe := func(c uint64) Probe { return probeAt(c, []uint64{c}, c, 0, 0, 0) }
		m.Arm(&q, probe)
		q.RunUntil(min(tc.end, 100))
		m.Finish(probe, tc.end)
		var ends []uint64
		for _, s := range m.Samples() {
			ends = append(ends, s.End)
		}
		if !reflect.DeepEqual(ends, tc.ends) {
			t.Errorf("end %d: sample ends %v, want %v", tc.end, ends, tc.ends)
		}
	}
}

func TestMetricsFlushAfterExactBoundaryAddsNothing(t *testing.T) {
	m := NewMetrics(100)
	p := probeAt(100, []uint64{100}, 10, 1, 1, 0)
	m.Record(p)
	m.Flush(p) // run ended exactly on the boundary
	if len(m.Samples()) != 1 {
		t.Fatalf("samples = %d, want 1 (flush at last boundary must be a no-op)", len(m.Samples()))
	}
}

func TestMetricsSampleSumsMatchCumulative(t *testing.T) {
	// The reconciliation invariant the integration test relies on, in
	// miniature: interval deltas must sum back to the final cumulative
	// probe, whatever the boundary pattern.
	m := NewMetrics(64)
	probes := []Probe{
		probeAt(64, []uint64{10, 20}, 100, 9, 9, 2),
		probeAt(128, []uint64{25, 45}, 260, 21, 21, 6),
		probeAt(200, []uint64{60, 90}, 500, 44, 44, 13),
	}
	for _, p := range probes[:2] {
		m.Record(p)
	}
	m.Flush(probes[2])
	var insts, l1a, l1m, l2a, l2m uint64
	for _, s := range m.Samples() {
		insts += s.Insts
		l1a += s.L1DAcc
		l1m += s.L1DMiss
		l2a += s.L2Acc
		l2m += s.L2Miss
	}
	final := probes[2]
	if insts != final.PerCPUInsts[0]+final.PerCPUInsts[1] {
		t.Errorf("insts sum = %d", insts)
	}
	if l1a != final.L1DAcc || l1m != final.L1DMiss || l2a != final.L2Acc || l2m != final.L2Miss {
		t.Errorf("interval sums diverge from cumulative: %d/%d %d/%d", l1a, l1m, l2a, l2m)
	}
}

func TestMetricsString(t *testing.T) {
	m := NewMetrics(0) // default interval
	if m.Interval != 10000 {
		t.Fatalf("default interval = %d", m.Interval)
	}
	m.ObserveAccess(2, 57)
	m.Record(probeAt(10000, []uint64{5000}, 900, 90, 90, 30))
	out := m.String()
	for _, want := range []string{"1 samples", "bus%", "Mem"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}
