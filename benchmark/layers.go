package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"cmpsim/internal/cache"
	"cmpsim/internal/coherence"
	"cmpsim/internal/core"
	"cmpsim/internal/event"
	"cmpsim/internal/interconnect"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// Layers below the cell are timed in batch: one clock pair around a
// loop over recorded input, never a clock pair per call. Each function
// returns total seconds and the number of operations it timed.

// timing accumulates seconds and operation counts for one layer metric.
type timing struct {
	s   float64
	ops uint64
}

func (t *timing) add(o timing) { t.s += o.s; t.ops += o.ops }

func (t timing) nsPerOp() float64 {
	if t.ops == 0 {
		return 0
	}
	return t.s * 1e9 / float64(t.ops)
}

// replay feeds a logged call sequence to a fresh memory system of the
// same architecture and configuration and returns the time the calls
// took and the system's report. The memory system's state depends on
// nothing but the calls it receives, so the report must equal the
// run's.
func replay(arch core.Arch, cfg memsys.Config, shared func(uint32) bool, log []call) (float64, memsys.Report, error) {
	sys, err := core.NewSystem(arch, cfg)
	if err != nil {
		return 0, memsys.Report{}, err
	}
	if s, ok := sys.(sharedDataSetter); ok && shared != nil {
		s.SetSharedData(shared)
	}
	t0 := time.Now()
	for i := range log {
		c := &log[i]
		switch c.kind {
		case kRead:
			sys.Access(c.now, int(c.cpu), c.addr, false)
		case kWrite:
			sys.Access(c.now, int(c.cpu), c.addr, true)
		case kIFetch:
			sys.IFetch(c.now, int(c.cpu), c.addr)
		case kLL:
			sys.LLReserve(int(c.cpu), c.addr)
		case kSC:
			sys.SCCheck(int(c.cpu), c.addr)
		case kClear:
			sys.ClearReservation(int(c.cpu))
		}
	}
	return time.Since(t0).Seconds(), sys.Report(), nil
}

// schedCost is the calibrated cost of core.Machine.RunWindow's own
// work at one CPU count.
type schedCost struct {
	loopNs float64 // per executed cycle, every CPU ticked
	jumpNs float64 // per verified jump (nextCycle with its NextWork scan)
}

// calibrateSched times RunWindow over a machine of stub cores. The
// fastest of five rounds is used (see endToEnd for why the fastest); a
// round executes a million cycles.
func calibrateSched(cpus int) (schedCost, error) {
	const cycles = 1 << 20
	const stride = 64
	round := func(stride uint64) (float64, error) {
		cfg := memsys.DefaultConfig()
		cfg.NumCPUs = cpus
		m, err := core.NewMachine(core.SharedMem, core.ModelMipsy, cfg, 1<<12)
		if err != nil {
			return 0, err
		}
		for i := 0; i < cpus; i++ {
			m.CPUs = append(m.CPUs, &stubCore{stride: stride})
		}
		t0 := time.Now()
		next, _, err := m.RunWindow(0, cycles*stride)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if next != cycles*stride {
			return 0, fmt.Errorf("stub machine stopped at cycle %d, want %d", next, cycles*stride)
		}
		return float64(d.Nanoseconds()) / cycles, nil
	}
	var loop, jump []float64
	for i := 0; i < 5; i++ {
		l, err := round(1)
		if err != nil {
			return schedCost{}, err
		}
		j, err := round(stride)
		if err != nil {
			return schedCost{}, err
		}
		loop = append(loop, l)
		jump = append(jump, j)
	}
	c := schedCost{loopNs: slices.Min(loop)}
	// A stride round executes one cycle and one jump per iteration.
	c.jumpNs = max(slices.Min(jump)-c.loopNs, 0)
	return c, nil
}

// dataCalls selects the completed data references of a log, capped so
// the micro-timings stay in the tens of milliseconds.
func dataCalls(log []call) []call {
	const maxCalls = 1 << 20
	out := make([]call, 0, min(len(log), maxCalls))
	for _, c := range log {
		if (c.kind == kRead || c.kind == kWrite) && !c.refused {
			out = append(out, c)
			if len(out) == maxCalls {
				break
			}
		}
	}
	return out
}

// timeCache drives a bare cache of the configuration's L1D geometry,
// and an MSHR file behind it, with the logged data addresses.
func timeCache(cfg memsys.Config, data []call) (access, mshr timing, hits uint64) {
	c := cache.New(cache.Config{Name: "bench-l1d", SizeBytes: cfg.L1DSize, LineBytes: cfg.LineBytes, Assoc: cfg.L1DAssoc})
	miss := make([]call, 0, len(data)/8)
	t0 := time.Now()
	for _, d := range data {
		write := d.kind == kWrite
		if r := c.Access(d.addr, write); r.Hit {
			hits++
		} else {
			st := cache.Exclusive
			if write {
				st = cache.Modified
			}
			c.Fill(d.addr, st)
			miss = append(miss, d)
		}
	}
	access = timing{time.Since(t0).Seconds(), uint64(len(data))}

	f := cache.NewMSHRFile(cfg.MSHRs)
	t0 = time.Now()
	for _, d := range miss {
		la := c.LineAddr(d.addr)
		if _, _, merged := f.Lookup(d.now, la); !merged && !f.Full(d.now) {
			f.Allocate(d.now, la, d.now+cfg.MemLat, uint8(memsys.LvlMem))
		}
	}
	mshr = timing{time.Since(t0).Seconds(), uint64(len(miss))}
	return access, mshr, hits
}

// timeCoherence drives the two coherence mechanisms with the logged
// data references of up to four CPUs: every reference is a bus
// transaction for the snooping protocol (read, write, or upgrade when
// the writer holds the line shared) and a fill or write-through for
// the directory, with an L2 eviction every 64th reference.
func timeCoherence(cfg memsys.Config, data []call) (snoop, dir timing) {
	n := cfg.NumCPUs
	newL1 := func() *cache.Cache {
		return cache.New(cache.Config{Name: "bench-l1d", SizeBytes: cfg.L1DSize, LineBytes: cfg.LineBytes, Assoc: cfg.L1DAssoc})
	}
	nodes := make([]coherence.Node, n)
	for i := range nodes {
		nodes[i] = coherence.Node{L1: newL1(), L2: cache.New(cache.Config{
			Name: "bench-l2", SizeBytes: cfg.PrivL2Size, LineBytes: cfg.LineBytes, Assoc: cfg.L2Assoc})}
	}
	sn := coherence.NewSnoop(nodes)
	t0 := time.Now()
	for _, d := range data {
		cpu := int(d.cpu) % n
		nd := nodes[cpu]
		st := cache.Modified
		if d.kind == kWrite {
			if ln := nd.L2.Probe(d.addr); ln != nil && ln.State == cache.Shared {
				sn.Upgrade(d.now, cpu, d.addr)
			} else {
				sn.Write(d.now, cpu, d.addr)
			}
		} else if sn.Read(d.now, cpu, d.addr).RemoteCopy {
			st = cache.Shared
		} else {
			st = cache.Exclusive
		}
		nd.L2.Fill(d.addr, st)
		nd.L1.Fill(d.addr, st)
	}
	snoop = timing{time.Since(t0).Seconds(), uint64(len(data))}

	l1s := make([]*cache.Cache, n)
	for i := range l1s {
		l1s[i] = newL1()
	}
	d := coherence.NewDirectory(l1s)
	t0 = time.Now()
	for i, c := range data {
		cpu := int(c.cpu) % n
		la := l1s[cpu].LineAddr(c.addr)
		if c.kind == kWrite {
			d.Write(c.now, la, cpu)
		} else {
			if v := l1s[cpu].Fill(c.addr, cache.Shared); v.Valid {
				d.DropSharer(v.LineAddr, cpu)
			}
			d.AddSharer(la, cpu)
		}
		if i%64 == 63 {
			d.L2Evict(c.now, la)
		}
	}
	dir = timing{time.Since(t0).Seconds(), uint64(len(data))}
	return snoop, dir
}

// timeInterconnect acquires a bus and a bank set at the logged
// timestamps of the references that left the L1.
func timeInterconnect(cfg memsys.Config, data []call) timing {
	bus := interconnect.Resource{Name: "bench-bus"}
	banks := interconnect.NewBanks("bench-l2bank", int(cfg.L2Banks))
	lineShift := uint32(0)
	for 1<<lineShift < cfg.LineBytes {
		lineShift++
	}
	var ops uint64
	t0 := time.Now()
	for _, d := range data {
		if d.level == memsys.LvlL1 {
			continue
		}
		bus.Acquire(d.now, cfg.MemOcc)
		banks.Acquire((d.addr>>lineShift)%cfg.L2Banks, d.now, cfg.SharedL2Occ)
		ops += 2
	}
	return timing{time.Since(t0).Seconds(), ops}
}

// timeEvents runs a synthetic timer chain through the event calendar:
// four timers that each reschedule themselves, as the guest kernel's
// preemption timers do.
func timeEvents() timing {
	const fires = 1 << 18
	var q event.Queue
	var fired uint64
	var tick event.Func
	tick = func(cyc uint64) {
		fired++
		q.Schedule(cyc+1000, tick)
	}
	for i := uint64(0); i < 4; i++ {
		q.Schedule(i*250, tick)
	}
	t0 := time.Now()
	for cyc := uint64(0); fired < fires; cyc += 250 {
		q.RunUntil(cyc)
	}
	return timing{time.Since(t0).Seconds(), fired}
}

// timeDecode re-encodes the machine's loaded text and times isa.Decode
// over it.
func timeDecode(m *core.Machine) (timing, error) {
	var words []isa.Word
	for addr := uint32(0); addr < m.Img.Size(); addr += 4 {
		in, ok := m.Code.InstAt(addr)
		if !ok {
			if len(words) > 0 && addr > workload.DataBase {
				break
			}
			continue
		}
		w, err := isa.Encode(in)
		if err != nil {
			return timing{}, fmt.Errorf("re-encode %#x: %w", addr, err)
		}
		words = append(words, w)
	}
	if len(words) == 0 {
		return timing{}, fmt.Errorf("no text found in machine")
	}
	reps := 1<<20/len(words) + 1
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, w := range words {
			if _, err := isa.Decode(w); err != nil {
				return timing{}, err
			}
		}
	}
	return timing{time.Since(t0).Seconds(), uint64(reps * len(words))}, nil
}

// timeImage returns the fastest of five allocations of one guest image.
func timeImage() float64 {
	var s []float64
	for i := 0; i < 5; i++ {
		runtime.GC() // as before every cell: the allocation reuses the freed image's span
		t0 := time.Now()
		img := mem.NewImage(workload.MemBytes)
		s = append(s, time.Since(t0).Seconds())
		_ = img
	}
	return slices.Min(s)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
