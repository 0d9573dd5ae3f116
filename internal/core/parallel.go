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
//     is private by the ownership analysis (simlint sharedmut), so
//     every access computes the same values as its serial twin.
//   - Progress: the CPU with the globally minimal (t, pos) never
//     blocks, and is always some worker's locally minimal CPU, so the
//     system can't deadlock.
//   - Race freedom: clocks are atomics (the store releasing cycle t
//     happens-before the load that admits a successor), everything
//     else is either owner-private or touched only under the gate.
//
// Shared resources that are not reached through a CPU's tick — the
// event calendar, the interval sampler, IRQ line delivery, telemetry
// flushes — run only in the coordinator, between window barriers.
package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"cmpsim/internal/cpu"
	"cmpsim/internal/cyc"
	"cmpsim/internal/hostprof"
	"cmpsim/internal/memsys"
)

// gridSize returns the SimWindow scheduling grid. Grid boundaries are
// absolute cycle numbers (multiples of the grid), so where RunWindow
// calls chop the run into chunks cannot move them — checkpoint/resume
// and single-call runs see identical IRQ merge points.
func (m *Machine) gridSize() uint64 {
	if w := m.Cfg.SimWindow; w > 0 {
		return w
	}
	return memsys.DefaultSimWindow
}

// parActive reports whether this RunWindow call takes the parallel
// path. Guest-observability attachments that record per-event streams
// (tracer, profiler, sanitizer) force the serial loop: their emission
// order is part of their contract and is not reproduced by sharded
// ticking. The interval sampler is fine — histogram accumulation is
// commutative and snapshots happen only at window boundaries.
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
// rotation-ordered admission spin. waits and siteWaits accumulate
// contended syncs (total and by gate site) for telemetry and are
// drained by the coordinator between runs; rec, when host profiling is
// attached, additionally receives every contended spin with its peer,
// site and duration.
type cpuGate struct {
	s    *parSched
	cpu  int
	tick uint64

	// grantedUntil is the waiter-side epoch grant: a cycle bound below
	// which every cross-shard peer's published safe horizon has already
	// been observed, so syncs at cycles strictly before it need no clock
	// loads at all. Sound because horizons only move forward inside a
	// carried stretch; the coordinator zeroes the grant whenever it
	// rewinds the clocks (non-quiet window boundary).
	grantedUntil uint64

	synced    bool
	waits     uint64
	siteWaits [hostprof.NumSites]uint64
	rec       *hostprof.GateRec
	_         [16]byte // pad to two cache lines: gates are adjacent in one slice
}

// Sync implements cpu.TickGate — the detailed CPU model's
// graduation-time guest-image read is the only caller that reaches the
// gate without a site-tagged shim.
func (g *cpuGate) Sync() { g.sync(hostprof.SiteMXSImage) }

// sync blocks until every peer CPU has left this CPU's current cycle
// or sits behind it in the cycle's service rotation. Idempotent within
// a tick; a no-op on the serial path.
//
// Two epoch-grant shortcuts over the original every-peer scan (DESIGN
// §8.6): same-shard peers are never checked — the owning worker picks
// its CPUs in (cycle, rotation-position) order, so a same-shard peer's
// published clock always already satisfies the admission predicate —
// and a whole-epoch grant is cached in grantedUntil: after one scan,
// every sync at a cycle below the minimum cross-shard horizon observed
// is admitted with a single comparison.
func (g *cpuGate) sync(site hostprof.Site) {
	s := g.s
	if !s.active || g.synced {
		return
	}
	g.synced = true
	t := g.tick
	if t < g.grantedUntil {
		return // inside a granted epoch: no peer can reach t anymore
	}
	n := len(s.clocks)
	myPos := rotPos(g.cpu, t, n)
	myShard := s.shardOf[g.cpu]
	granted := notHalted
	spun := false
	for j := 0; j < n; j++ {
		if s.shardOf[j] == myShard {
			continue // own worker's CPUs, self included: safe by pick order
		}
		jPos := rotPos(j, t, n)
		cj := s.clocks[j].c.Load()
		if cj > t || (cj == t && jPos > myPos) {
			if cj < granted {
				granted = cj
			}
			continue // peer already past: no contention, no timestamps
		}
		spun = true
		tok := g.rec.SpinBegin()
		for spins := 0; ; spins++ {
			cj = s.clocks[j].c.Load()
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
		g.rec.SpinEnd(tok, j, site, t)
		if cj < granted {
			granted = cj
		}
	}
	g.grantedUntil = granted
	if spun {
		g.waits++
		g.siteWaits[site]++
	}
}

// rotPos is CPU id's service position in cycle t's rotation — the
// serial loop services CPU (i+off)%n at index i with off = t % n, so
// position(id) = (id - off + n) % n.
func rotPos(id int, t uint64, n int) int {
	return (id - int(t%uint64(n)) + n) % n
}

// gridNext returns the first SimWindow grid boundary strictly after c.
func gridNext(c, grid uint64) uint64 { return (c/grid + 1) * grid }

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
	m       *Machine
	shards  [][]int     // worker -> owned CPU ids
	shardOf []int       // CPU id -> owning worker index
	clocks  []clockSlot // per CPU: safe horizon — no shared-state touch strictly before this cycle
	gates   []cpuGate   // per CPU: tick-gate state, owned by the sharding worker

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

	// Per-worker telemetry accumulators, owner-written during windows,
	// drained by the coordinator after the final barrier of each
	// runParallel call.
	ticks   []uint64 // executed CPU ticks per shard
	skipped []uint64 // per-CPU cycles locally fast-forwarded per shard
	grants  []uint64 // epoch grants taken at window entry per shard
	granted []uint64 // per-CPU cycles those grants covered per shard

	jobs []chan winJob  // per-worker window hand-off (buffered, reused)
	wg   sync.WaitGroup // window barrier

	// hp is the optional host-side execution observatory
	// (memsys.Config.HostProf). It observes the host schedule only —
	// its presence must never force the serial path or perturb sim
	// output (parActive deliberately ignores it; the parallel-identity
	// tests pin byte-identical output with a recorder attached).
	// hpBound tracks the lazy Bind: the recorder binds on the first
	// runParallel call, not at construction, so a run that never takes
	// the parallel path (guest instruments forced it serial) snapshots
	// to an empty profile.
	hp      *hostprof.Recorder
	hpBound bool
}

// newParSched builds the scheduler for up to `jobs` workers over the
// machine's CPUs. The default assignment splits CPUs into contiguous
// blocks; Config.ShardLayout overrides it with an explicit CPU→worker
// map (profile-guided layouts co-locate the hottest waiter-peer pairs,
// whose gate spins then vanish by the same-shard pick-order argument).
func newParSched(m *Machine, jobs int) (*parSched, error) {
	ncpu := m.Cfg.NumCPUs
	var shards [][]int
	if lay := m.Cfg.ShardLayout; lay != "" {
		var err error
		// The layout decides only which host worker ticks which CPU — a
		// pure host-parallelism knob, excluded from the result-cache key;
		// output is byte-identical for any assignment (identity tests).
		//simlint:allow neutral — shard layout is host scheduling shape, not simulated state
		shards, err = hostprof.ParseShardLayout(lay, ncpu)
		if err != nil {
			return nil, fmt.Errorf("core: -shard-layout: %w", err)
		}
	} else {
		nw := jobs
		// Shard workers beyond the host's cores cannot overlap and only add
		// gate contention; cap at GOMAXPROCS, but keep at least two shards
		// so the concurrent machinery stays exercised (and race-detectable)
		// on small hosts. The shard count is a pure host-parallelism knob —
		// output is byte-identical for any value (parallel-identity tests).
		if procs := runtime.GOMAXPROCS(0); nw > procs {
			nw = procs
			if nw < 2 {
				nw = 2
			}
		}
		if nw > ncpu {
			nw = ncpu
		}
		for w := 0; w < nw; w++ {
			lo, hi := w*ncpu/nw, (w+1)*ncpu/nw
			ids := make([]int, 0, hi-lo)
			for id := lo; id < hi; id++ {
				ids = append(ids, id)
			}
			shards = append(shards, ids)
		}
	}
	nw := len(shards)
	s := &parSched{
		m:       m,
		shards:  shards,
		shardOf: make([]int, ncpu),
		clocks:  make([]clockSlot, ncpu),
		gates:   make([]cpuGate, ncpu),
		haltAt:  make([]uint64, ncpu),
		ticks:   make([]uint64, nw),
		skipped: make([]uint64, nw),
		grants:  make([]uint64, nw),
		granted: make([]uint64, nw),
		jobs:    make([]chan winJob, nw),
	}
	for i := range s.gates {
		s.gates[i] = cpuGate{s: s, cpu: i}
	}
	for w, ids := range shards {
		for _, id := range ids {
			s.shardOf[id] = w
		}
		s.jobs[w] = make(chan winJob, 1)
	}
	s.hp = m.Cfg.HostProf
	return s, nil
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
	w.g.sync(hostprof.SiteAccess)
	return w.sys.Access(now, cpu, addr, write)
}

func (w gatedSys) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	w.g.sync(hostprof.SiteIFetch)
	return w.sys.IFetch(now, cpu, addr)
}

func (w gatedSys) LLReserve(cpu int, addr uint32) {
	w.g.sync(hostprof.SiteLLReserve)
	w.sys.LLReserve(cpu, addr)
}

func (w gatedSys) SCCheck(cpu int, addr uint32) bool {
	w.g.sync(hostprof.SiteSCCheck)
	return w.sys.SCCheck(cpu, addr)
}

func (w gatedSys) ClearReservation(cpu int) {
	w.g.sync(hostprof.SiteClearReserve)
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
	w.g.sync(hostprof.SiteSyscall)
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
// event calendar, IRQ delivery, the interval sampler, telemetry — and
// runs them between window barriers; workers own only their CPUs'
// ticks. Window edges are chosen so nothing shared can change inside a
// window: the next event, the next sampler due-cycle and the next IRQ
// merge grid boundary all bound w1.
func (m *Machine) runParallel(start, n uint64) (next uint64, halted bool, err error) {
	s := m.par
	mets := m.Cfg.Metrics
	tel := m.Cfg.Telem
	grid := m.gridSize()
	end := start + n
	cyc := start
	if tel != nil {
		tel.Windows.Inc()
	}

	nw := len(s.shards)
	// Lazy-bind the host observatory on the first window that actually
	// takes the parallel path; the worker spawns below publish the
	// recorders to their owning goroutines.
	if s.hp != nil && !s.hpBound {
		s.hp.Bind(len(s.clocks), s.shards)
		for i := range s.gates {
			s.gates[i].rec = s.hp.Gate(i)
		}
		s.hpBound = true
	}
	ctk := s.hp.Coord()
	rtok := ctk.RunBegin()
	defer ctk.RunEnd(rtok)
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
	telBase := cyc

	// Coordinator-serial slices span everything between barriers: IRQ
	// merge, event calendar, halt scans, window-edge computation,
	// sampler probes, telemetry flushes.
	//
	// carry tracks whether the workers' published safe horizons survive
	// the window boundary (DESIGN §8.6). A horizon is a NextWork proof
	// — "no observable work, hence no shared-state touch, strictly
	// before cycle h, assuming no external input" — so it stays valid
	// across a boundary exactly when no external input arrived: no
	// buffered IRQ promoted onto a live line, no event callback ran.
	// (The interval sampler only reads counters; it never feeds state
	// back into a CPU, so a sampler cut does not invalidate.) The first
	// window never carries: clocks are stale from the previous
	// RunWindow chunk, which may have run serially or not at all.
	carry := false
	// Adaptive window sizing (Config.AdaptWindow): adaptLen is the
	// current window-length target, halved when windows run tick-dense
	// (lockstep phases realign at cheap barriers instead of per-access
	// gate spins) and doubled back toward the grid when they run
	// skip-dominated. The policy input — executed ticks per window — is
	// deterministic, so the adapted schedule shape is reproducible;
	// window edges never change simulated state (identity pinned with
	// the flag on by the parallel byte-identity tests).
	adaptLen := grid
	var prevTicks uint64
	for _, t := range s.ticks {
		prevTicks += t
	}
	stok := ctk.SerialBegin()
	for cyc < end {
		if cyc%grid == 0 {
			if m.irq.npend > 0 {
				carry = false // merge is about to make lines live
			}
			m.irq.merge()
		}
		if ev, ok := m.Events.NextCycle(); ok && ev <= cyc {
			carry = false // event callbacks may wake CPUs / raise IRQs
		}
		m.Events.RunUntil(cyc)
		alive := false
		for _, c := range m.CPUs {
			if !c.Done() {
				alive = true
				break
			}
		}
		if !alive {
			// Mirror the serial loop's break: the sample due at the
			// halt cycle (recorded there before breaking) still fires.
			if mets != nil && mets.Due(cyc) {
				mets.Record(m.probe(cyc))
			}
			break
		}

		// Coordinator fast-forward (Config.AdaptWindow): when every live
		// CPU's carried safe horizon clears the present, the whole
		// stretch up to the minimum horizon is proven no-op — the serial
		// loop's global quiescence skip would jump it — so advance
		// without dispatching a window at all: no worker hand-off, no
		// barrier, no per-worker grant bookkeeping. Bounded exactly like
		// a window edge (grid boundary for IRQ merges, run end, next
		// event, sampler due-cycle + 1), and a live IRQ line never
		// fast-forwards because skipTo refuses to publish a horizon past
		// t+1 for it.
		if m.Cfg.AdaptWindow && carry {
			h := notHalted
			for i, c := range m.CPUs {
				if c.Done() {
					continue
				}
				if v := s.clocks[i].c.Load(); v < h {
					h = v
				}
			}
			if h > cyc {
				jump := gridNext(cyc, grid)
				if end < jump {
					jump = end
				}
				if ev, ok := m.Events.NextCycle(); ok && ev < jump {
					jump = ev
				}
				if mets != nil {
					// Same sanctioned obs→sim dataflow as the window-edge
					// clamp below: the sampler schedule bounds the jump,
					// never what any cycle computes.
					//simlint:allow neutral — fast-forward bound only; output byte-identical (see parallel-identity tests)
					if due := mets.NextDue(); due+1 < jump && due+1 > cyc {
						jump = due + 1
					}
				}
				if h < jump {
					jump = h
				}
				if jump > cyc {
					for _, c := range m.CPUs {
						if c.Done() {
							continue
						}
						if cs, ok := c.(cycleSkipper); ok {
							cs.SkipCycles(cyc, jump)
						}
					}
					ctk.WindowOpen(cyc, jump, hostprof.CutFastForward)
					last := jump - 1 //simlint:allow cycleflow — jump > cyc >= 0, so jump >= 1
					if mets != nil && mets.Due(last) {
						mets.Record(m.probe(last))
					}
					cyc = jump
					continue
				}
			}
		}

		// Window edge: the next grid boundary, clamped by the run end,
		// the next event and the next sampler due-cycle (+1: the serial
		// loop samples after ticking the due cycle, so the due cycle
		// must be a window's last cycle). All bounds exceed cyc, so the
		// window is non-empty.
		cut := hostprof.CutGrid
		w1 := gridNext(cyc, grid)
		if w1 > end {
			w1 = end
			cut = hostprof.CutEnd
		}
		if ev, ok := m.Events.NextCycle(); ok && ev < w1 {
			w1 = ev
			cut = hostprof.CutEvent
		}
		if mets != nil {
			// Sampler-schedule bound, the same sanctioned obs→sim
			// dataflow as jumpTarget's: it moves only the barrier, never
			// what any cycle computes (identity pinned by the parallel
			// byte-identity tests).
			//simlint:allow neutral — window edge only; output byte-identical (see parallel-identity tests)
			if due := mets.NextDue(); due < w1 {
				w1 = due + 1
				cut = hostprof.CutSampler
				if w1 <= cyc { // overdue sample: tick one cycle, record
					w1 = cyc + 1
				}
			}
		}
		if m.Cfg.AdaptWindow && cyc+adaptLen < w1 {
			w1 = cyc + adaptLen
			cut = hostprof.CutAdapt
		}

		// Quiet boundary: carry the published safe horizons (and the
		// waiters' cached epoch grants) into the next window — a CPU
		// whose horizon already clears w1 is granted the whole epoch
		// without a single re-proving tick. Otherwise rewind every clock
		// to the present and drop the grant caches with them.
		if !carry {
			for i := range s.clocks {
				s.clocks[i].c.Store(cyc)
				s.gates[i].grantedUntil = 0
			}
		}
		carry = true
		for i := range s.haltAt {
			s.haltAt[i] = notHalted
		}
		ctk.WindowOpen(cyc, w1, cut)
		ctk.SerialEnd(stok)
		btok := ctk.BarrierBegin()
		s.active = true
		m.inTick = true
		s.wg.Add(nw)
		for w := 0; w < nw; w++ {
			s.jobs[w] <- winJob{w0: cyc, w1: w1}
		}
		s.wg.Wait()
		m.inTick = false
		s.active = false
		ctk.BarrierEnd(btok, cyc, w1)
		stok = ctk.SerialBegin()

		if m.Cfg.AdaptWindow {
			// Retune the window-length target from this window's tick
			// density (executed ticks per CPU-cycle — deterministic, so
			// the adapted schedule reproduces run to run): dense lockstep
			// phases shrink the window, skip-dominated phases grow it
			// back toward the grid.
			var tsum uint64
			for _, t := range s.ticks {
				tsum += t
			}
			ticked := tsum - prevTicks //simlint:allow cycleflow — tsum is a monotone sum of per-worker tick counters, so tsum >= prevTicks
			prevTicks = tsum
			span := (w1 - cyc) * uint64(len(s.clocks)) //simlint:allow cycleflow — every window-edge bound exceeds cyc, so w1 > cyc
			if 2*ticked > span && adaptLen > max(grid/16, 1) {
				adaptLen /= 2
			} else if 8*ticked < span && adaptLen < grid {
				adaptLen *= 2
			}
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
				if at > h {
					h = at
				}
			}
			if h < w1 {
				if mets != nil && mets.Due(h) {
					mets.Record(m.probe(h))
				}
				cyc = h
				break
			}
		}
		last := w1 - 1 //simlint:allow cycleflow — w1 > cyc >= 0, so w1 >= 1
		if mets != nil && mets.Due(last) {
			mets.Record(m.probe(last))
		}
		cyc = w1
		if tel != nil {
			tel.ParWindows.Inc()
			if cyc > telBase {
				tel.CyclesTicked.Add(cyc - telBase)
				telBase = cyc
			}
		}
	}

	ctk.SerialEnd(stok)
	if tel != nil {
		if cyc > telBase {
			tel.CyclesTicked.Add(cyc - telBase)
		}
		var gw uint64
		for i := range s.gates {
			g := &s.gates[i]
			gw += g.waits
			g.waits = 0
			for site := range g.siteWaits {
				if n := g.siteWaits[site]; n > 0 {
					tel.GateWaitsBySite.With(hostprof.Site(site).String()).Add(n)
					g.siteWaits[site] = 0
				}
			}
		}
		tel.GateWaits.Add(gw)
		for w := 0; w < nw; w++ {
			if s.ticks[w] > 0 {
				tel.ShardTicks.With(strconv.Itoa(w)).Add(s.ticks[w])
				s.ticks[w] = 0
			}
			if s.skipped[w] > 0 {
				tel.LocalSkipped.Add(s.skipped[w])
				s.skipped[w] = 0
			}
			if s.grants[w] > 0 {
				tel.EpochGrants.Add(s.grants[w])
				s.grants[w] = 0
			}
			if s.granted[w] > 0 {
				tel.EpochGrantedCycles.Add(s.granted[w])
				s.granted[w] = 0
			}
		}
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
// and publishes its safe horizon through the CPU's clock: the earliest
// future cycle at which the CPU can next touch shared state (the
// unclamped NextWork proof when it skips, the next tick cycle
// otherwise, "never" once it halts). Quiescent stretches are
// fast-forwarded per CPU: a skipped cycle makes no shared-state access
// at all in the serial loop, so skipping it locally cannot reorder
// anything.
func (s *parSched) worker(w int) {
	m := s.m
	noSkip := m.Cfg.NoSkip
	own := s.shards[w]
	cur := make([]uint64, len(own))
	tk := s.hp.Track(w)
	for jb := range s.jobs[w] {
		w0, w1 := jb.w0, jb.w1
		if w0 == w1 {
			return // quit signal
		}
		wtok := tk.WindowBegin(w0)
		ticks0 := s.ticks[w]
		// Window entry: resume each owned CPU from its carried safe
		// horizon. The coordinator left the clocks untouched across a
		// quiet boundary, so a horizon past w0 is a still-valid NextWork
		// proof: the cycles up to it are no-ops in the serial loop too,
		// and SkipCycles replaces them exactly as the in-window local
		// skip does. A horizon at or past w1 grants the whole epoch —
		// the CPU neither ticks nor re-proves anything this window.
		for i, id := range own {
			cur[i] = w0
			h := s.clocks[id].c.Load()
			if h <= w0 {
				continue
			}
			c := m.CPUs[id]
			if c.Done() {
				continue // the pick loop retires it against haltAt
			}
			if h > w1 {
				h = w1
			}
			if cs, ok := c.(cycleSkipper); ok {
				cs.SkipCycles(w0, h)
			}
			s.grants[w]++
			s.granted[w] += h - w0
			tk.Grant(id, w0, h)
			cur[i] = h
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
				// CPU from the window; a halted CPU can never touch
				// shared state again, so its horizon is "never" and
				// survives every carry.
				s.haltAt[id] = t
				s.clocks[id].c.Store(notHalted)
				cur[best] = w1
				continue
			}
			g := &s.gates[id]
			g.tick = t
			g.synced = false
			wake := c.Tick(t)
			s.ticks[w]++
			tk.Tick(id)
			if c.Done() {
				// Halted during this tick: the serial loop would first
				// see it Done at t+1.
				s.haltAt[id] = t + 1
				s.clocks[id].c.Store(notHalted)
				cur[best] = w1
				continue
			}
			nt := t + 1
			hz := nt
			if !noSkip && wake > nt {
				v, h := s.skipTo(c, id, t, nt, w1)
				if h > hz {
					hz = h
				}
				if v > nt {
					s.skipped[w] += v - nt
					tk.Skip(id, nt, v)
					nt = v
				}
			}
			s.clocks[id].c.Store(hz)
			cur[best] = nt
		}
		tk.WindowEnd(wtok, w1, cyc.Sub(s.ticks[w], ticks0))
		s.wg.Done()
	}
}

// skipTo is the per-CPU quiescence skip: verify the tick's wake hint
// against the CPU's own NextWork proof and jump to the earlier of that
// and the window edge. Sound inside a window because a quiescent CPU's
// skipped cycles make no shared-state access, no event fires inside a
// window, and the CPU's live IRQ line is frozen until the next
// coordinator phase — mirroring the serial jumpTarget's guards, a live
// line suppresses the skip so delivery stays on the per-cycle path.
//
// It returns both the clamped position `pos` the CPU resumes at inside
// this window and the unclamped proof `horizon`: the position must not
// cross w1 (the coordinator owns everything past the barrier), but the
// horizon may — publishing it through the clock lets cross-shard
// waiters stop checking this CPU for the whole proven stretch, and
// lets the next window's entry grant resume the skip without a
// re-proving tick (DESIGN §8.6).
func (s *parSched) skipTo(c Core, id int, t, step, w1 uint64) (pos, horizon uint64) {
	if s.m.irq.live[id] {
		return step, step
	}
	target := c.NextWork(t)
	if target <= step {
		return step, step
	}
	pos = target
	if pos > w1 {
		pos = w1
	}
	if pos > step {
		if cs, ok := c.(cycleSkipper); ok {
			cs.SkipCycles(step, pos)
		}
	}
	return pos, target
}
