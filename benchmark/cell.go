package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// runMode selects what a cell run records beyond its timestamps.
type runMode struct {
	count   bool // wrap m.Sys and the CPUs with the counting probes
	log     bool // also log every memory-system call (needs count)
	perfect bool // replace m.Sys with the benchmark's 1-cycle memory
}

// sample is one execution of a cell. The timestamps are taken by
// timedWorkload at the boundaries workload.Run crosses, so the same
// code measures a cell run directly and one run inside a runner.Pool
// worker.
type sample struct {
	start, cfgIn, cfgOut, valIn, valOut time.Time

	res     *core.RunResult
	err     error
	skipped uint64
	digest  string

	sys   *sysProbe     // nil unless counting
	cores *coreCounts   // nil unless counting
	cfg   memsys.Config // the machine's configuration (MXS-adjusted)
	mach  *core.Machine // kept only for logged runs (text extraction)
}

func (s *sample) setupS() float64    { return s.cfgOut.Sub(s.start).Seconds() }
func (s *sample) runS() float64      { return s.valIn.Sub(s.cfgOut).Seconds() }
func (s *sample) validateS() float64 { return s.valOut.Sub(s.valIn).Seconds() }
func (s *sample) wallS() float64     { return s.valOut.Sub(s.start).Seconds() }

// timedWorkload wraps the public workload.Workload interface: Configure
// and Validate are the two points where workload.Run hands the machine
// to the workload, which is where the probes go in and the timestamps
// are taken. Kernel trap time is part of the CPU ticks it is charged
// under: the trap handler is installed inside Configure.
type timedWorkload struct {
	workload.Workload
	mode runMode
	s    *sample
}

func (t *timedWorkload) Configure(m *core.Machine) error {
	s := t.s
	s.cfgIn = time.Now()
	s.cfg = m.Cfg
	if t.mode.perfect {
		m.Sys = newPerfectMem(m.Cfg.NumCPUs, m.Cfg.LineBytes)
	}
	if t.mode.count {
		s.sys = &sysProbe{sys: m.Sys}
		if t.mode.log {
			s.sys.logging, s.sys.log = true, callLog[:0]
			s.mach = m
		}
		// Before Configure: the CPUs capture m.Sys when AddContext
		// builds them.
		m.Sys = s.sys
	}
	err := t.Workload.Configure(m)
	if t.mode.count {
		s.cores = &coreCounts{}
		for i, c := range m.CPUs {
			p := &coreProbe{Core: c, n: s.cores}
			p.skip, _ = c.(cycleSkipper)
			m.CPUs[i] = p
		}
	}
	s.cfgOut = time.Now()
	return err
}

func (t *timedWorkload) Validate(m *core.Machine) error {
	s := t.s
	s.valIn = time.Now()
	err := t.Workload.Validate(m)
	s.valOut = time.Now()
	s.skipped = m.SkippedCycles()
	if s.sys != nil && s.sys.logging {
		callLog = s.sys.log // keep the grown buffer for the next logged run
	}
	return err
}

// begin starts a sample for c: the returned constructor is what
// runner.Job.Workload (or run, below) calls inside the worker.
func (c *cell) begin(mode runMode, s *sample) func() (workload.Workload, error) {
	return func() (workload.Workload, error) {
		s.start = time.Now()
		return &timedWorkload{Workload: c.new(), mode: mode, s: s}, nil
	}
}

// run executes the cell once on the calling goroutine: construct,
// core.NewMachine, Configure, Machine.Run, Validate.
func (c *cell) run(cfg memsys.Config, mode runMode) *sample {
	s := &sample{}
	w, _ := c.begin(mode, s)()
	res, err := workload.Run(w, c.Arch, c.Model, &cfg)
	s.finish(res, err)
	return s
}

func (s *sample) finish(res *core.RunResult, err error) {
	s.res, s.err = res, err
	if err == nil {
		s.digest = digest(res)
	}
}

// setupOnly performs a cell's set-up (construct, NewMachine, Configure)
// and discards the machine, returning the time it took.
func (c *cell) setupOnly() (float64, error) {
	t0 := time.Now()
	w := c.new()
	m, err := core.NewMachine(c.Arch, c.Model, c.cfg, w.MemBytes())
	if err != nil {
		return 0, err
	}
	if err := w.Configure(m); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// digest is the fingerprint of everything a run reports: cycle count,
// per-CPU stall statistics and the memory-system report.
func digest(res *core.RunResult) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func digestStrings(v []string) string {
	h := sha256.New()
	for _, s := range v {
		fmt.Fprintln(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- counting probes (no clocks) ----

type callKind uint8

const (
	kRead callKind = iota
	kWrite
	kIFetch
	kLL
	kSC
	kClear
	numKinds
)

// call is one logged memory-system call, 16 bytes. refused and level
// record the outcome so the layer micro-timings can select misses.
type call struct {
	now     uint64
	addr    uint32
	cpu     uint8
	kind    callKind
	level   memsys.Level
	refused bool
}

// callLog is the one log buffer, reused by every logged run (logged
// runs are serial). A paper-scale MP3D cell logs about ten million
// calls.
var callLog []call

// sysProbe counts (and optionally logs) every call a CPU model makes
// into the memory system. It forwards the optional methods core finds
// by type assertion; dropping SetSharedData would silently turn the
// shared-L2 machine's private data write-through.
type sysProbe struct {
	sys     memsys.System
	n       [numKinds]uint64
	refused uint64
	level   [memsys.NumLevels]uint64
	logging bool
	log     []call
	shared  func(uint32) bool
}

func (p *sysProbe) Name() string { return p.sys.Name() }

func (p *sysProbe) Access(now uint64, cpu int, addr uint32, write bool) (memsys.Result, bool) {
	r, ok := p.sys.Access(now, cpu, addr, write)
	k := kRead
	if write {
		k = kWrite
	}
	p.n[k]++
	if ok {
		p.level[r.Level]++
	} else {
		p.refused++
	}
	if p.logging {
		p.log = append(p.log, call{now, addr, uint8(cpu), k, r.Level, !ok})
	}
	return r, ok
}

func (p *sysProbe) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	r := p.sys.IFetch(now, cpu, addr)
	p.n[kIFetch]++
	p.level[r.Level]++
	if p.logging {
		p.log = append(p.log, call{now, addr, uint8(cpu), kIFetch, r.Level, false})
	}
	return r
}

func (p *sysProbe) LLReserve(cpu int, addr uint32) {
	p.sys.LLReserve(cpu, addr)
	p.n[kLL]++
	if p.logging {
		p.log = append(p.log, call{0, addr, uint8(cpu), kLL, 0, false})
	}
}

func (p *sysProbe) SCCheck(cpu int, addr uint32) bool {
	ok := p.sys.SCCheck(cpu, addr)
	p.n[kSC]++
	if p.logging {
		p.log = append(p.log, call{0, addr, uint8(cpu), kSC, 0, false})
	}
	return ok
}

func (p *sysProbe) ClearReservation(cpu int) {
	p.sys.ClearReservation(cpu)
	p.n[kClear]++
	if p.logging {
		p.log = append(p.log, call{0, 0, uint8(cpu), kClear, 0, false})
	}
}

func (p *sysProbe) Report() memsys.Report { return p.sys.Report() }

func (p *sysProbe) SetSharedData(f func(addr uint32) bool) {
	p.shared = f
	if s, ok := p.sys.(sharedDataSetter); ok {
		s.SetSharedData(f)
	}
}

func (p *sysProbe) MSHROutstanding(now uint64) int {
	if s, ok := p.sys.(interface{ MSHROutstanding(uint64) int }); ok {
		return s.MSHROutstanding(now)
	}
	return 0
}

func (p *sysProbe) calls() uint64 {
	var t uint64
	for _, n := range p.n {
		t += n
	}
	return t
}

type sharedDataSetter interface {
	SetSharedData(func(addr uint32) bool)
}

type cycleSkipper interface {
	SkipCycles(from, to uint64)
}

// coreCounts is shared by the probes of one machine's CPUs.
type coreCounts struct {
	ticks, nextWork uint64
}

// coreProbe counts the scheduler's calls into one CPU model. The
// embedded Core forwards Done, Stats, Context and FlushFetchBuffer;
// SkipCycles is forwarded explicitly because core finds it by type
// assertion and MXS backfills its stall blame through it.
type coreProbe struct {
	core.Core
	n    *coreCounts
	skip cycleSkipper
}

func (p *coreProbe) Tick(now uint64) uint64 {
	p.n.ticks++
	return p.Core.Tick(now)
}

func (p *coreProbe) NextWork(now uint64) uint64 {
	p.n.nextWork++
	return p.Core.NextWork(now)
}

func (p *coreProbe) SkipCycles(from, to uint64) {
	if p.skip != nil {
		p.skip.SkipCycles(from, to)
	}
}

// ---- benchmark-owned layer substitutes ----

// perfectMem is a memory system in which every reference hits in one
// cycle. Running a cell against it times the CPU model alone. LL/SC
// reservations behave as in the real compositions (any other CPU's
// store to the line breaks them), so the guest's locks and barriers
// still work and Validate still passes.
type perfectMem struct {
	lineMask uint32
	addr     []uint32
	valid    []bool
}

func newPerfectMem(cpus int, lineBytes uint32) *perfectMem {
	return &perfectMem{lineMask: ^(lineBytes - 1), addr: make([]uint32, cpus), valid: make([]bool, cpus)}
}

func (p *perfectMem) Name() string { return "perfect" }

func (p *perfectMem) Access(now uint64, cpu int, addr uint32, write bool) (memsys.Result, bool) {
	if write {
		la := addr & p.lineMask
		for i := range p.valid {
			if i != cpu && p.valid[i] && p.addr[i] == la {
				p.valid[i] = false
			}
		}
	}
	return memsys.Result{Done: now + 1, Level: memsys.LvlL1}, true
}

func (p *perfectMem) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	return memsys.Result{Done: now + 1, Level: memsys.LvlL1}
}

func (p *perfectMem) LLReserve(cpu int, addr uint32) {
	p.addr[cpu], p.valid[cpu] = addr&p.lineMask, true
}

func (p *perfectMem) SCCheck(cpu int, addr uint32) bool {
	ok := p.valid[cpu] && p.addr[cpu] == addr&p.lineMask
	p.valid[cpu] = false
	return ok
}

func (p *perfectMem) ClearReservation(cpu int) { p.valid[cpu] = false }

func (p *perfectMem) Report() memsys.Report { return memsys.Report{Name: "perfect"} }

// stubCore is a CPU model that does nothing: a machine made of them
// times core.Machine.RunWindow alone. With stride 1 every cycle is
// executed (the per-cycle loop); with a larger stride every executed
// cycle is followed by a verified jump (nextCycle and its NextWork
// scan).
type stubCore struct {
	ctx    cpu.Context
	stride uint64
	next   uint64
}

func (s *stubCore) Tick(now uint64) uint64 {
	if now >= s.next {
		s.next = now + s.stride
	}
	return s.next
}
func (s *stubCore) NextWork(now uint64) uint64 { return s.next }
func (s *stubCore) Done() bool                 { return false }
func (s *stubCore) Stats() cpu.StallStats      { return cpu.StallStats{} }
func (s *stubCore) Context() *cpu.Context      { return &s.ctx }
func (s *stubCore) FlushFetchBuffer()          {}
