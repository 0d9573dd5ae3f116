// Parallel tick scheduler: shards one simulation's per-CPU tick work
// across host goroutines while reproducing the serial cycle loop's
// output byte for byte.
//
// The design is conservative timestamp ordering. Each simulated CPU
// carries an atomic progress clock holding the cycle it is currently
// executing. Within a scheduling window every worker advances its own
// CPUs freely through their private state (pipeline, register file,
// fetch cursor, store buffer), but before a CPU's FIRST touch of shared
// simulation state in cycle t — a memory-system call, a trap into the
// guest kernel, or a direct read of the shared guest image — it blocks
// until every other CPU has either finished cycle t or sits behind it
// in cycle t's service rotation. Cycle t's rotation is the serial
// loop's arbitration order (off = t % nCPUs), so shared-state accesses
// happen in exactly the lexicographic (cycle, rotation-position) order
// the serial loop produces: same grant order, same coherence traffic,
// same stall cycles, same statistics. CPUs that never touch shared
// state in a cycle — the common case — never synchronize at all.
//
// Determinism argument, in brief (DESIGN.md §8 has the full version):
//
//   - Exclusivity: the gate admits CPU p into cycle t's shared region
//     only when every peer j satisfies clock_j > t, or clock_j == t
//     with j after p in t's rotation. Two CPUs distinct in (t, pos)
//     can't both hold a grant, so shared accesses are globally ordered.
//   - Fidelity: that global order is exactly the serial loop's, by
//     induction over (t, pos); per-CPU state between shared accesses
//     is touched only by the worker that owns the CPU, so every access
//     computes the same values as its serial twin. Nothing checks that
//     statically: the -sim-jobs identity tests (par_test.go, here and
//     in the root package) run under -race in CI.
//   - Progress: the CPU with the globally minimal (t, pos) never
//     blocks, and is always some worker's locally minimal CPU, so the
//     system can't deadlock.
//   - Race freedom: clocks are atomics (the store releasing cycle t
//     happens-before the load that admits a successor), everything
//     else is either owner-private or touched only under the gate.
//
// Shared resources that are not reached through a CPU's tick — the
// event calendar (the interval sampler and the interrupt-raising kernel
// timers included) — run only in the coordinator, between window
// barriers.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cmpsim/internal/cpu"
	"cmpsim/internal/memsys"
)

// parActive reports whether this RunWindow call takes the parallel
// path. Guest-observability attachments that record per-event streams
// (tracer, profiler, sanitizer) force the serial loop: their emission
// order is part of their contract and is not reproduced by sharded
// ticking. The interval sampler is fine — histogram accumulation is
// commutative and snapshots are events, run by the coordinator.
func (m *Machine) parActive() bool {
	return m.par != nil && !m.orderedInstruments()
}

// orderedInstruments reports whether a guest instrument is attached
// whose output depends on the order in which CPUs' events reach it.
func (m *Machine) orderedInstruments() bool {
	return m.Cfg.Trace != nil || m.Cfg.Prof != nil || m.Cfg.Check != nil
}

// notHalted is the haltAt sentinel: CPU not yet observed Done this
// window.
const notHalted = ^uint64(0)

// clockSlot is one CPU's progress clock, padded to a cache line so
// spinning readers never false-share with the owner's stores.
type clockSlot struct {
	c atomic.Uint64
	_ [56]byte
}

// cpuGate is one CPU's tick-gate state. tick/synced are written by the
// owning worker at the top of every tick; Sync implements the
// rotation-ordered admission spin.
type cpuGate struct {
	s      *parSched
	cpu    int
	tick   uint64
	synced bool
	_      [32]byte // pad to a cache line: gates are adjacent in one slice
}

// Sync implements cpu.TickGate: block until every peer CPU has left
// this CPU's current cycle or sits behind it in the cycle's service
// rotation. Idempotent within a tick; a no-op on the serial path.
func (g *cpuGate) Sync() {
	s := g.s
	if !s.active || g.synced {
		return
	}
	g.synced = true
	n := len(s.clocks)
	t := g.tick
	myPos := rotPos(g.cpu, t, n)
	for j := 0; j < n; j++ {
		if j == g.cpu {
			continue
		}
		jPos := rotPos(j, t, n)
		for spins := 0; ; spins++ {
			cj := s.clocks[j].c.Load()
			if cj > t || (cj == t && jPos > myPos) {
				break
			}
			// Yield early and often: with fewer host cores than
			// workers (GOMAXPROCS=1 in the degenerate case) the peer
			// cannot advance until this goroutine leaves the P.
			if spins&7 == 7 {
				runtime.Gosched()
			}
		}
	}
}

// rotPos is CPU id's service position in cycle t's rotation — the
// serial loop services CPU (i+off)%n at index i with off = t % n, so
// position(id) = (id - off + n) % n.
func rotPos(id int, t uint64, n int) int {
	return (id - int(t%uint64(n)) + n) % n
}

// winJob is one scheduling window handed to a worker: advance every
// owned CPU from cycle w0 up to (not including) w1. A zero-width job
// (w0 == w1) tells the worker to exit.
type winJob struct {
	w0, w1 uint64
}

// parSched is the parallel tick scheduler's persistent state, built
// once per Machine by NewMachine when the configuration asks for
// sharding. Worker goroutines are spawned per runParallel call and
// joined before it returns, so an idle Machine holds no goroutines.
type parSched struct {
	m      *Machine
	shards [][]int     // worker -> owned CPU ids (contiguous blocks)
	clocks []clockSlot // per CPU: the cycle it ticks next; > t means t complete
	gates  []cpuGate   // per CPU: tick-gate state, owned by the sharding worker

	// active is true only while workers are running a window (set and
	// cleared by the coordinator around the barrier, so the
	// worker-visible transitions are ordered by the job send / WaitGroup
	// edges). The gates are installed in the CPUs unconditionally;
	// active=false makes Sync a no-op on serially-forced runs.
	active bool

	// haltAt[id] is the first cycle at which id's worker observed the
	// CPU Done in the current window (notHalted otherwise). Every CPU is
	// visited at least once per window, so when the coordinator finds
	// all CPUs Done after a barrier, every haltAt entry is fresh and
	// their maximum is the serial loop's break cycle.
	haltAt []uint64

	jobs []chan winJob  // per-worker window hand-off (buffered, reused)
	wg   sync.WaitGroup // window barrier
}

// newParSched builds the scheduler for up to `jobs` workers over the
// machine's CPUs, splitting them into contiguous shards.
func newParSched(m *Machine, jobs int) *parSched {
	ncpu := m.Cfg.NumCPUs
	nw := jobs
	// Shard workers beyond the host's cores cannot overlap and only add
	// gate contention; cap at GOMAXPROCS, but keep at least two shards
	// so the concurrent machinery stays exercised (and race-detectable)
	// on small hosts. The shard count is a pure host-parallelism knob —
	// output is byte-identical for any value (parallel-identity tests).
	if procs := runtime.GOMAXPROCS(0); nw > procs {
		nw = max(procs, 2)
	}
	nw = min(nw, ncpu)
	s := &parSched{
		m:      m,
		clocks: make([]clockSlot, ncpu),
		gates:  make([]cpuGate, ncpu),
		haltAt: make([]uint64, ncpu),
		jobs:   make([]chan winJob, nw),
	}
	for i := range s.gates {
		s.gates[i] = cpuGate{s: s, cpu: i}
	}
	for w := 0; w < nw; w++ {
		lo, hi := w*ncpu/nw, (w+1)*ncpu/nw
		ids := make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		s.shards = append(s.shards, ids)
		s.jobs[w] = make(chan winJob, 1)
	}
	return s
}

// gate returns CPU id's tick gate (for models that must Sync before
// touching shared state outside a memory-system call).
func (s *parSched) gate(id int) cpu.TickGate { return &s.gates[id] }

// gatedSys wraps the memory system for one CPU: every call first takes
// the CPU's rotation-order grant for the current cycle, so the shared
// caches, interconnect and coherence state see accesses in exactly the
// serial service order.
type gatedSys struct {
	sys memsys.System
	g   *cpuGate
}

func (w gatedSys) Name() string { return w.sys.Name() }

func (w gatedSys) Access(now uint64, cpu int, addr uint32, write bool) (memsys.Result, bool) {
	w.g.Sync()
	return w.sys.Access(now, cpu, addr, write)
}

func (w gatedSys) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	w.g.Sync()
	return w.sys.IFetch(now, cpu, addr)
}

func (w gatedSys) LLReserve(cpu int, addr uint32) {
	w.g.Sync()
	w.sys.LLReserve(cpu, addr)
}

func (w gatedSys) SCCheck(cpu int, addr uint32) bool {
	w.g.Sync()
	return w.sys.SCCheck(cpu, addr)
}

func (w gatedSys) ClearReservation(cpu int) {
	w.g.Sync()
	w.sys.ClearReservation(cpu)
}

func (w gatedSys) Report() memsys.Report { return w.sys.Report() }

// gatedTrap wraps the trap handler the same way: the guest kernel's
// run queues, process table and pending-wake lists are shared state.
type gatedTrap struct {
	h cpu.TrapHandler
	g *cpuGate
}

func (w gatedTrap) Syscall(now uint64, cpuID int, ctx *cpu.Context, num int32) uint64 {
	w.g.Sync()
	return w.h.Syscall(now, cpuID, ctx, num)
}

// gatedSys returns the memory system CPU id should tick against:
// the machine's system directly when the serial loop is the only
// scheduler, the gate-wrapped view otherwise.
func (m *Machine) gatedSys(id int) memsys.System {
	if m.par == nil {
		return m.Sys
	}
	return gatedSys{sys: m.Sys, g: &m.par.gates[id]}
}

// gatedTrap is gatedSys's counterpart for the trap handler.
func (m *Machine) gatedTrap(id int) cpu.TrapHandler {
	if m.par == nil {
		return m.Trap
	}
	return gatedTrap{h: m.Trap, g: &m.par.gates[id]}
}

// runParallel is RunWindow's sharded twin. The coordinator owns every
// shared resource that the serial loop touches outside CPU ticks — the
// event calendar, which alone raises interrupts — and runs it between
// window barriers; workers own only their CPUs' ticks. Window edges are
// chosen so nothing shared can change inside a window: a window ends at
// the serial loop's horizon, the next event or the run end.
func (m *Machine) runParallel(start, n uint64) (next uint64, halted bool, err error) {
	s := m.par
	end := start + n
	cyc := start

	nw := len(s.shards)
	for w := 0; w < nw; w++ {
		//simlint:allow determinism — the tick gate serializes every shared-state access into the serial loop's exact (cycle, rotation) order; identity pinned by the parallel byte-identity tests
		go s.worker(w)
	}
	// Stop the workers on every exit path (including a guest fault):
	// a zero-width window is the quit signal.
	defer func() {
		for _, ch := range s.jobs {
			ch <- winJob{}
		}
	}()

	for cyc < end {
		m.Events.RunUntil(cyc)
		alive := false
		for _, c := range m.CPUs {
			if !c.Done() {
				alive = true
				break
			}
		}
		if !alive {
			break
		}

		// Window edge: the serial loop's horizon (the run end or the next
		// event), past cyc, so the window is non-empty.
		w1 := m.horizon(cyc, end)

		for i := range s.clocks {
			s.clocks[i].c.Store(cyc)
			s.haltAt[i] = notHalted
		}
		s.active = true
		m.inTick = true
		s.wg.Add(nw)
		for w := 0; w < nw; w++ {
			s.jobs[w] <- winJob{w0: cyc, w1: w1}
		}
		s.wg.Wait()
		m.inTick = false
		s.active = false
		if err := m.raiseErr; err != nil {
			m.raiseErr = nil
			return cyc, false, err
		}

		allDone := true
		for _, c := range m.CPUs {
			if !c.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			// The serial loop would have broken out of the cycle loop at
			// h = max over CPUs of the first cycle that observed the CPU
			// halted. h == w1 means the last CPU's halting tick was the
			// window's last cycle: fall through, and the next iteration's
			// all-halted pre-check reproduces the serial break exactly.
			h := uint64(0)
			for _, at := range s.haltAt {
				h = max(h, at)
			}
			if h < w1 {
				cyc = h
				break
			}
		}
		cyc = w1
	}

	for _, c := range m.CPUs {
		if f := c.Context().Fault; f != "" {
			return cyc, false, fmt.Errorf("core: cpu fault: %s", f)
		}
	}
	allHalted := true
	for _, c := range m.CPUs {
		if !c.Done() {
			allHalted = false
			break
		}
	}
	return cyc, allHalted, nil
}

// worker advances one shard of CPUs through scheduling windows until
// told to quit. Within a window it repeatedly picks the owned CPU with
// the smallest (cycle, rotation-position) — which is always safe to
// run next, and keeps the globally minimal CPU unblocked — ticks it,
// and publishes the cycle it ticks next through the CPU's clock.
// Quiescent stretches are fast-forwarded per CPU: a skipped cycle makes
// no shared-state access at all in the serial loop, so skipping it
// locally cannot reorder anything.
func (s *parSched) worker(w int) {
	m := s.m
	noSkip := m.Cfg.NoSkip
	own := s.shards[w]
	cur := make([]uint64, len(own))
	for jb := range s.jobs[w] {
		w0, w1 := jb.w0, jb.w1
		if w0 == w1 {
			return // quit signal
		}
		for i := range cur {
			cur[i] = w0
		}
		n := len(s.clocks)
		for {
			// Pick the owned CPU with the smallest (cycle, position).
			best := -1
			var bt uint64
			var bp int
			for i, t := range cur {
				if t >= w1 {
					continue
				}
				p := rotPos(own[i], t, n)
				if best < 0 || t < bt || (t == bt && p < bp) {
					best, bt, bp = i, t, p
				}
			}
			if best < 0 {
				break // every owned CPU reached the window edge
			}
			id := own[best]
			c := m.CPUs[id]
			t := cur[best]
			if c.Done() {
				// Done at the window start (halting ticks are caught
				// below). Record the observation cycle and retire the
				// CPU from the window; a halted CPU never touches shared
				// state again.
				s.haltAt[id] = t
				s.clocks[id].c.Store(notHalted)
				cur[best] = w1
				continue
			}
			g := &s.gates[id]
			g.tick = t
			g.synced = false
			wake := c.Tick(t)
			if c.Done() {
				// Halted during this tick: the serial loop would first
				// see it Done at t+1.
				s.haltAt[id] = t + 1
				s.clocks[id].c.Store(notHalted)
				cur[best] = w1
				continue
			}
			nt := t + 1
			if !noSkip && wake > nt {
				nt = s.skipTo(c, id, t, nt, w1)
			}
			s.clocks[id].c.Store(nt)
			cur[best] = nt
		}
		s.wg.Done()
	}
}

// skipTo is the per-CPU quiescence skip: verify the tick's wake hint
// against the CPU's own NextWork proof and return the cycle the CPU
// ticks next, the earlier of that proof and the window edge. Sound
// inside a window because a quiescent CPU's skipped cycles make no
// shared-state access, no event fires inside a window, and the CPU's
// live IRQ line is frozen until the next coordinator phase — mirroring
// the serial jumpTarget's guards, a live line suppresses the skip so
// delivery stays on the per-cycle path.
func (s *parSched) skipTo(c Core, id int, t, step, w1 uint64) uint64 {
	if s.m.irq.live[id] {
		return step
	}
	pos := min(c.NextWork(t), w1)
	if pos <= step {
		return step
	}
	if cs, ok := c.(cycleSkipper); ok {
		cs.SkipCycles(step, pos)
	}
	return pos
}
