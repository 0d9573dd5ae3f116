package obsv

import (
	"fmt"
	"math/bits"
	"strings"

	"cmpsim/internal/cyc"
	"cmpsim/internal/event"
)

// maxLevels bounds the memory-hierarchy levels tracked by the latency
// histograms (mirrors memsys.NumLevels; obsv sits below memsys).
const maxLevels = 4

// histBuckets is the number of log2 latency buckets: bucket i counts
// latencies in [2^(i-1)+1, 2^i] (bucket 0 counts latency <= 1). 32
// buckets cover any uint32 latency.
const histBuckets = 33

// LatencyHist is a per-level log2-bucket histogram of data access
// service latency.
type LatencyHist struct {
	Buckets [maxLevels][histBuckets]uint64
	Count   [maxLevels]uint64
	Sum     [maxLevels]uint64
}

// bucketOf maps a latency to its log2 bucket index.
func bucketOf(lat uint64) int {
	if lat <= 1 {
		return 0
	}
	return bits.Len64(lat - 1)
}

// BucketCeil returns the inclusive upper bound of bucket i.
func BucketCeil(i int) uint64 {
	if i <= 0 {
		return 1
	}
	return 1 << uint(i)
}

// Observe records one access serviced at level with the given latency.
func (h *LatencyHist) Observe(level uint8, lat uint64) {
	if level >= maxLevels {
		return
	}
	h.Buckets[level][bucketOf(lat)]++
	h.Count[level]++
	h.Sum[level] += lat
}

// Mean returns the mean latency observed at level.
func (h *LatencyHist) Mean(level uint8) float64 {
	if level >= maxLevels || h.Count[level] == 0 {
		return 0
	}
	return float64(h.Sum[level]) / float64(h.Count[level])
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// latency at level, resolved to bucket granularity.
func (h *LatencyHist) Quantile(level uint8, q float64) uint64 {
	if level >= maxLevels || h.Count[level] == 0 {
		return 0
	}
	// The conversion keeps the product out of a fused multiply-add, so
	// every host picks the same bucket.
	target := uint64(float64(q * float64(h.Count[level])))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.Buckets[level][i]
		if cum >= target {
			return BucketCeil(i)
		}
	}
	return BucketCeil(histBuckets - 1)
}

// String renders the non-empty levels of the histogram.
func (h *LatencyHist) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %12s %10s %8s %8s  %s\n", "level", "accesses", "mean", "p50<=", "p99<=", "log2 buckets (lat<=1,2,4,8,...)")
	for l := uint8(0); l < maxLevels; l++ {
		if h.Count[l] == 0 {
			continue
		}
		hi := 0
		for i := 0; i < histBuckets; i++ {
			if h.Buckets[l][i] > 0 {
				hi = i
			}
		}
		var buckets []string
		for i := 0; i <= hi; i++ {
			buckets = append(buckets, fmt.Sprint(h.Buckets[l][i]))
		}
		fmt.Fprintf(&sb, "%-5s %12d %10.2f %8d %8d  [%s]\n",
			LevelName(l), h.Count[l], h.Mean(l), h.Quantile(l, 0.50), h.Quantile(l, 0.99),
			strings.Join(buckets, " "))
	}
	return sb.String()
}

// ResProbe is one resource's cumulative contention counters at a point
// in time (a snapshot of interconnect.ResourceStats).
type ResProbe struct {
	Name     string
	Acquires uint64
	Wait     uint64
	Busy     uint64
}

// Probe is a snapshot of a machine's cumulative counters at one cycle.
// The sampler differences successive probes into interval Samples; the
// core package builds probes from the memory-system report and the CPU
// stat blocks.
type Probe struct {
	Cycle        uint64
	PerCPUInsts  []uint64
	L1DAcc       uint64
	L1DMiss      uint64
	L2Acc        uint64
	L2Miss       uint64
	Resources    []ResProbe
	MSHRInFlight int // instantaneous outstanding misses at the probe cycle
}

// ResSample is one resource's activity during one interval.
type ResSample struct {
	Name     string
	Acquires uint64
	Wait     uint64
	Busy     uint64
	Util     float64 // Busy / interval length (can exceed 1 for banked resources)
}

// CPUSample is one CPU's activity during one interval.
type CPUSample struct {
	Insts uint64
	IPC   float64
}

// Sample is one closed interval of the metrics time-series.
type Sample struct {
	Start, End uint64 // [Start, End) in cycles
	PerCPU     []CPUSample
	Insts      uint64 // total instructions graduated in the interval
	IPC        float64
	L1DAcc     uint64
	L1DMiss    uint64
	L2Acc      uint64
	L2Miss     uint64
	Resources  []ResSample
	MSHRs      int // outstanding misses at the sample boundary
}

// L1DMissRate returns the interval's local L1 data miss rate.
func (s *Sample) L1DMissRate() float64 {
	if s.L1DAcc == 0 {
		return 0
	}
	return float64(s.L1DMiss) / float64(s.L1DAcc)
}

// L2MissRate returns the interval's local L2 miss rate.
func (s *Sample) L2MissRate() float64 {
	if s.L2Acc == 0 {
		return 0
	}
	return float64(s.L2Miss) / float64(s.L2Acc)
}

// Metrics is the interval sampler: every Interval cycles an event on the
// machine's calendar probes it and Record turns the delta since the
// previous probe into a Sample. It also accumulates the latency
// histogram fed by the memory system on every traced data access.
// Metrics is carried by pointer in memsys.Config so that configuration
// copies share one collector.
type Metrics struct {
	Interval uint64

	hist    LatencyHist
	samples []Sample
	last    Probe
	nextAt  uint64 // end cycle of the next interval to record
	flushed bool
}

// NewMetrics returns a collector sampling every interval cycles.
func NewMetrics(interval uint64) *Metrics {
	if interval == 0 {
		interval = 10000
	}
	return &Metrics{Interval: interval, nextAt: interval}
}

// Arm puts the sampler on q as an ordinary self-rescheduling event. The
// sample due at cycle d fires at the front of cycle d+1 (ScheduleFirst),
// ahead of every other event there, so probe(d) reads the state cycle d
// left; it then re-arms for the next due cycle. Being an event, it bounds
// the scheduler's quiescence jumps and run-ahead like any other, and the
// loop needs no sampler logic of its own. A Metrics serves one machine
// and is armed once.
func (m *Metrics) Arm(q *event.Queue, probe func(cycle uint64) Probe) {
	var fire event.Func
	fire = func(uint64) {
		m.Record(probe(m.nextAt))
		q.ScheduleFirst(m.nextAt+1, fire)
	}
	q.ScheduleFirst(m.nextAt+1, fire)
}

// Finish ends the series at the run's end cycle: it records the sample
// still owed, one due before end whose event the run's last window did
// not reach (the window ended first), then flushes the final partial
// interval at end.
func (m *Metrics) Finish(probe func(cycle uint64) Probe, end uint64) {
	if m.nextAt < end {
		m.Record(probe(m.nextAt))
	}
	m.Flush(probe(end))
}

// ObserveAccess feeds the latency histogram; called by the memory system
// for every completed data access when metrics are enabled.
func (m *Metrics) ObserveAccess(level uint8, lat uint64) { m.hist.Observe(level, lat) }

// Record closes the interval ending at p.Cycle; the next one ends
// Interval cycles later.
func (m *Metrics) Record(p Probe) {
	m.record(p)
	m.nextAt = p.Cycle + m.Interval
}

// Flush closes the final (possibly partial) interval at the run's last
// cycle, so short runs — and the tail of every run — are represented.
// Safe to call multiple times; only the first call past the last
// recorded boundary adds a sample.
func (m *Metrics) Flush(p Probe) {
	if m.flushed || p.Cycle <= m.last.Cycle {
		m.flushed = true
		return
	}
	m.record(p)
	m.flushed = true
}

func (m *Metrics) record(p Probe) {
	s := Sample{
		Start:   m.last.Cycle,
		End:     p.Cycle,
		L1DAcc:  cyc.Sub(p.L1DAcc, m.last.L1DAcc),
		L1DMiss: cyc.Sub(p.L1DMiss, m.last.L1DMiss),
		L2Acc:   cyc.Sub(p.L2Acc, m.last.L2Acc),
		L2Miss:  cyc.Sub(p.L2Miss, m.last.L2Miss),
		MSHRs:   p.MSHRInFlight,
	}
	n := float64(cyc.Sub(s.End, s.Start))
	for i, insts := range p.PerCPUInsts {
		var prev uint64
		if i < len(m.last.PerCPUInsts) {
			prev = m.last.PerCPUInsts[i]
		}
		d := cyc.Sub(insts, prev)
		s.PerCPU = append(s.PerCPU, CPUSample{Insts: d, IPC: float64(d) / n})
		s.Insts += d
	}
	s.IPC = float64(s.Insts) / n
	for i, rp := range p.Resources {
		var prev ResProbe
		if i < len(m.last.Resources) {
			prev = m.last.Resources[i]
		}
		rs := ResSample{
			Name:     rp.Name,
			Acquires: cyc.Sub(rp.Acquires, prev.Acquires),
			Wait:     cyc.Sub(rp.Wait, prev.Wait),
			Busy:     cyc.Sub(rp.Busy, prev.Busy),
		}
		rs.Util = float64(rs.Busy) / n
		s.Resources = append(s.Resources, rs)
	}
	m.samples = append(m.samples, s)
	m.last = p
}

// Samples returns the recorded time-series.
func (m *Metrics) Samples() []Sample { return m.samples }

// Hist returns the accumulated latency histogram.
func (m *Metrics) Hist() *LatencyHist { return &m.hist }

// String renders the time-series as a table plus the latency histogram.
func (m *Metrics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "interval metrics (every %d cycles, %d samples)\n", m.Interval, len(m.samples))
	if len(m.samples) == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-22s %8s %9s %9s %5s", "cycles", "ipc", "L1Dmiss%", "L2miss%", "mshr")
	for _, r := range m.samples[0].Resources {
		fmt.Fprintf(&sb, " %9s", r.Name+"%")
	}
	sb.WriteByte('\n')
	for _, s := range m.samples {
		fmt.Fprintf(&sb, "[%9d,%9d) %8.3f %9.2f %9.2f %5d",
			s.Start, s.End, s.IPC, 100*s.L1DMissRate(), 100*s.L2MissRate(), s.MSHRs)
		for _, r := range s.Resources {
			fmt.Fprintf(&sb, " %9.1f", 100*r.Util)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("\ndata-access service latency (cycles):\n")
	sb.WriteString(m.hist.String())
	return sb.String()
}
