// Package mxs implements the paper's detailed CPU model (Sections 2.1,
// 3.1): a 2-way-issue dynamically scheduled superscalar with speculative
// execution and non-blocking memory references. The pipeline is
// decoupled into fetch, execute and graduate stages: up to two
// instructions per cycle are fetched (with 1024-entry BTB prediction and
// wrong-path fetch after mispredictions), dispatched into a 32-entry
// centralized instruction window / reorder buffer, issued out of order
// to fully pipelined functional units with the Table 1 latencies (two
// copies of every unit except the single memory data port), and
// graduated in program order to maintain precise state.
package mxs

import (
	"math"
	"math/bits"

	"cmpsim/internal/cpu"
	"cmpsim/internal/cyc"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
)

const (
	fetchWidth  = 2
	issueWidth  = 2
	gradWidth   = 2
	windowSize  = 32 // one bit per slot in the uint32 window masks
	fetchQueue  = 8
	maxSrcs     = 2 // register sources of any instruction (cpu.Uop.Src)
	btbEntries  = 1024
	invalidLine = ^uint32(0)
)

// The slot masks need exactly 32 window entries and the fetch ring a
// power-of-two capacity; either index is out of range otherwise.
var (
	_ = [1]struct{}{}[windowSize-32]
	_ = [1]struct{}{}[fetchQueue&(fetchQueue-1)]
)

// fetchEntry is one fetched, predicted instruction.
type fetchEntry struct {
	pc       uint32 // virtual PC
	ppc      uint32 // physical PC (profiling attribution)
	u        *cpu.Uop
	predNext uint32 // predicted next PC after this instruction
}

// robEntry is one in-flight instruction. Whether a slot is live is the
// ring position's business (head, count), and which pipeline stage it
// waits for is a bit in the CPU's slot masks; the fields of a slot
// outside the ring are stale and never read.
type robEntry struct {
	doneAt uint64

	// Results.
	fvalue float64
	value  uint32

	// Store data computed at issue, written at graduation.
	storeVal  uint32
	storeFVal float64

	u   *cpu.Uop // the instruction, in the program text
	pc  uint32
	ppc uint32 // physical PC (profiling attribution)

	// Control flow.
	predNext   uint32
	actualNext uint32

	// Memory.
	ea       uint32 // physical address
	eaOK     bool
	memLevel memsys.Level
	fwd      bool // load forwarded from an older store

	issued bool
	done   bool

	// Renamed sources: srcProd[s] is the ROB slot producing u.Src[s], or
	// -1 when the value is architectural (or there is no such source).
	// waitOn holds the producers whose result is not yet visible (not in
	// avail): the entry is ready when it is empty.
	waitOn  uint32
	srcProd [maxSrcs]int8
	flags   cpu.UopFlags // u.Flags
	dest    uint8        // u.Dest
}

// bit is slot's position in a window mask.
func bit(slot int) uint32 { return 1 << uint(slot) }

// wrap reduces a non-negative ring index to a window slot.
func wrap(i int) int { return i & (windowSize - 1) }

type btbEntry struct {
	tag    uint32
	target uint32
	valid  bool
}

// CPU is one MXS core.
type CPU struct {
	id   int
	ctx  *cpu.Context
	mem  memsys.System
	code cpu.CodeSource
	trap cpu.TrapHandler
	img  *mem.Image

	lineMask uint32

	// Fetch.
	fetchPC      uint32
	fetchReady   uint64 // I-miss completion gate
	fetchLine    uint32
	fetchLvl     memsys.Level
	fq           [fetchQueue]fetchEntry // ring: fqLen entries from fqHead
	fqHead       int
	fqLen        int
	fetchStalled bool // stopped at a serializing instruction or fetch fault
	fetchFault   bool
	text         []cpu.Uop // the program region the last fetch hit (see cpu.CodeSource)
	textBase     uint32

	// Window/ROB ring buffer.
	rob   [windowSize]robEntry
	head  int
	tail  int
	count int

	// Slot masks: bit i describes rob[i], and only live slots have bits
	// set. Every per-cycle stage iterates the mask of the entries it has
	// work for (oldest first, see fromHead) instead of walking the ring.
	// Serializing instructions execute at the head and appear in none.
	waiting uint32 // dispatched, not yet issued
	ready   uint32 // the waiting entries whose waitOn is empty
	pending uint32 // issued, result not yet visible to consumers
	avail   uint32 // issued, done, and doneAt reached: result visible
	stores  uint32 // SW/SB/SD, the loads' ordering hazards

	// nextDone is a lower bound on the doneAt of every pending entry:
	// complete has nothing to do before it.
	nextDone uint64

	// What the last Tick could not move and until when, for NextWork;
	// reset at the top of every Tick, so valid exactly as long as nobody
	// has ticked the core since. blocked holds the ready loads tryLoad
	// turned away without touching anything: behind an older store (the
	// pending and head terms of NextWork bound that store), or refused
	// by the memory system with a retry cycle (memsys.Result), the
	// earliest of which is issueRetry. headRetry is the retry cycle of a
	// refused store at the head. Both cycles are cpu.NoWork when unset
	// and past now+1 otherwise (retryAt).
	blocked    uint32
	issueRetry uint64
	headRetry  uint64

	// consumers[p] holds the live slots that renamed a source to p, from
	// p's dispatch until its release: what complete wakes and release
	// detaches.
	consumers [windowSize]uint32

	// Rename table: last ROB slot writing each unified register, -1 none.
	writer [64]int8

	btb [btbEntries]btbEntry

	irq     cpu.InterruptSource
	line    *bool // the CPU's interrupt line (irq.Line); noLine without a source
	irqStop bool  // draining the pipeline to take an interrupt

	tr    obsv.Tracer    // optional event tracer; nil means disabled
	prof  *prof.Profiler // optional cycle-attribution profiler; nil means disabled
	stats cpu.StallStats
}

// SetInterruptSource attaches an external interrupt line. Delivery is
// precise: fetch stops, the pipeline drains, then the trap fires with
// the architectural PC as the resume point.
func (c *CPU) SetInterruptSource(src cpu.InterruptSource) {
	c.irq, c.line = src, src.Line(c.id)
}

// noLine is the interrupt line of a CPU without an interrupt source:
// nothing raises it.
var noLine bool

// SetTracer attaches an event tracer; pipeline flushes, branch
// mispredictions and window-full dispatch stalls then emit events.
func (c *CPU) SetTracer(tr obsv.Tracer) { c.tr = tr }

// SetProfiler attaches a cycle-attribution profiler: retired
// instructions and blamed stall cycles are charged to physical PCs,
// in lockstep with the StallStats counters. nil (the default) keeps
// the hook sites on their zero-cost path.
func (c *CPU) SetProfiler(p *prof.Profiler) { c.prof = p }

// New builds an MXS core with hardware id executing ctx.
func New(id int, ctx *cpu.Context, sys memsys.System, code cpu.CodeSource, trap cpu.TrapHandler, img *mem.Image, lineBytes uint32) *CPU {
	if trap == nil {
		trap = cpu.NopTrap{}
	}
	c := &CPU{
		id:        id,
		ctx:       ctx,
		mem:       sys,
		code:      code,
		trap:      trap,
		img:       img,
		lineMask:  ^(lineBytes - 1),
		fetchLine: invalidLine,
		line:      &noLine,

		issueRetry: cpu.NoWork,
		headRetry:  cpu.NoWork,
	}
	c.fetchPC = ctx.PC
	for i := range c.writer {
		c.writer[i] = -1
	}
	return c
}

// Context returns the executing context.
func (c *CPU) Context() *cpu.Context { return c.ctx }

// Stats returns the accumulated statistics.
func (c *CPU) Stats() cpu.StallStats { return c.stats }

// Done reports whether the CPU halted.
func (c *CPU) Done() bool { return c.ctx.Halted }

// FlushFetchBuffer invalidates the fetch line buffer (context switch).
func (c *CPU) FlushFetchBuffer() { c.fetchLine = invalidLine }

// Tick advances the core by one cycle.
func (c *CPU) Tick(now uint64) uint64 {
	if c.ctx.Halted {
		return cpu.NoWork
	}
	c.blocked, c.issueRetry, c.headRetry = 0, cpu.NoWork, cpu.NoWork
	if *c.line {
		c.irqStop = true
	}
	if c.irqStop && c.count == 0 {
		c.fqLen = 0
		c.irq.AckInterrupt(c.id)
		extra := c.trap.Syscall(now, c.id, c.ctx, cpu.IRQ)
		c.flushAll(now)
		c.irqStop = false
		c.fetchPC = c.ctx.PC
		c.fetchReady = now + 1 + extra
		return c.NextWork(now)
	}
	// Every stage runs in this order on every cycle; one with nothing to
	// look at (empty window, no completion due, nothing ready, empty fetch
	// queue) is not entered.
	graduated := 0
	if c.count > 0 {
		graduated = c.graduate(now)
	}
	if c.pending != 0 && c.nextDone <= now {
		c.complete(now)
	}
	if c.ready != 0 {
		c.issue(now)
	}
	if c.fqLen > 0 {
		c.dispatch(now)
	}
	if !c.irqStop {
		c.fetch(now)
	}
	if graduated == 0 && !c.ctx.Halted {
		c.blame(now)
	}
	// Quiescence hint (see core.Core): a graduating pipeline certainly
	// has per-cycle work, so the full NextWork proof only runs on
	// zero-graduation cycles — the stalls it exists to fast-forward.
	if c.ctx.Halted {
		return cpu.NoWork
	}
	if graduated > 0 {
		return now + 1
	}
	return c.NextWork(now)
}

// NextWork implements the scheduler's quiescence probe: the earliest
// cycle at or after now at which Tick can make progress or have a
// per-cycle side effect beyond stall blame (which SkipCycles backfills).
// The proof is conservative — any state whose wake-up time this scan
// cannot bound returns now+1, which degrades gracefully to the
// per-cycle loop — and sound only because every transition in the
// pipeline is driven by a cycle number the scan can see: fetchReady for
// the front end, doneAt for every in-flight instruction, and for what
// the memory system refused the retry cycle it gave (memsys.Result),
// before which a retry changes nothing on either side. What has no such
// number stays per-cycle: a fetch queue that can dispatch, a ready entry
// issue did not turn away, an SC or a refused LL at the head, a refusal
// whose retries do have effects (retry cycle now+1), and any refusal
// under a tracer, which records each retry.
func (c *CPU) NextWork(now uint64) uint64 {
	if c.ctx.Halted {
		return cpu.NoWork
	}
	if c.irqStop || *c.line {
		return now + 1 // interrupt delivery and pipeline draining are per-cycle
	}
	wake := uint64(cpu.NoWork)
	if !c.fetchStalled && !c.fetchFault && c.fqLen < fetchQueue {
		if c.fetchReady <= now+1 {
			return now + 1 // the front end can fetch next cycle
		}
		wake = c.fetchReady // I-miss completion re-enables fetch
	}
	if c.fqLen > 0 && c.count < windowSize {
		return now + 1 // dispatch moves fetched instructions every cycle
	}
	if c.tr != nil && c.count == windowSize && c.fqLen > 0 {
		return now + 1 // the window-full trace event is emitted per cycle
	}
	// What is left to bound is the window. Serializers behind the head
	// are inert until they reach it, and an issued, done entry behind
	// the head only waits to graduate; older entries bound both.
	if c.count > 0 {
		e := &c.rob[c.head]
		switch {
		case e.flags&cpu.UopSerial != 0:
			// SYSCALL, HALT and SC act, and an LL goes to memory (and
			// retries there), on every cycle at the head; an issued LL
			// waits for the cycle before its data, when serialize commits.
			if e.flags&cpu.UopLoad == 0 || !e.issued {
				return now + 1
			}
			wake = min(wake, cyc.Sub(e.doneAt, 1))
		case e.issued && e.done:
			// Values latched: graduation acts on it as soon as doneAt has
			// passed, unless it is a store the memory system refused.
			switch {
			case e.doneAt > now:
				wake = min(wake, e.doneAt)
			case c.headRetry == cpu.NoWork:
				return now + 1
			default:
				wake = min(wake, c.headRetry)
			}
		}
	}
	if c.ready&^c.blocked != 0 {
		// Operands available, yet not issued for a reason that is not
		// provable from here (FU conflict, issue width, dispatched after
		// issue ran, a refused load to retry next cycle): no skip.
		return now + 1
	}
	wake = min(wake, c.issueRetry)
	// A waiting entry that is not ready wakes when its last producer
	// completes, and it cannot issue before an unissued producer does,
	// so the pending entries bound every other transition in the
	// window: the ones still executing by their own doneAt, and a load
	// that was done at issue (forwarded or unmapped, visible from doneAt
	// on) through the consumers whose last operand it is.
	for m := c.pending; m != 0; m &= m - 1 {
		p := bits.TrailingZeros32(m)
		pe := &c.rob[p]
		if !pe.done {
			if pe.doneAt <= now {
				return now + 1 // complete() was cut short by a flush this cycle
			}
			if pe.doneAt < wake {
				wake = pe.doneAt // completion marks it done at doneAt
			}
			continue
		}
		for cm := c.consumers[p] & c.waiting; cm != 0; cm &= cm - 1 {
			if t := c.operandsAt(&c.rob[bits.TrailingZeros32(cm)]); t < wake {
				wake = t
			}
		}
	}
	if wake <= now {
		return now + 1
	}
	return wake
}

// operandsAt returns the cycle from which every renamed source of e is
// visible, or cpu.NoWork if one of its producers has not issued yet
// (that producer's own transitions bound progress).
func (c *CPU) operandsAt(e *robEntry) uint64 {
	var at uint64
	for _, p := range e.srcProd {
		if p < 0 {
			continue
		}
		pe := &c.rob[p]
		if !pe.issued {
			return cpu.NoWork
		}
		if pe.doneAt > at {
			at = pe.doneAt
		}
	}
	return at
}

// SkipCycles is the scheduler's bulk-accounting hook: the cycles in
// [from, to) were proved inert by NextWork and will never be ticked,
// but in the per-cycle loop each of them would have charged one
// zero-graduation blame cycle. NextWork guarantees nothing completes,
// issues, dispatches or graduates inside the range, so the blame
// attribution is frozen across it and one bulk charge of to-from
// cycles is identical to the per-cycle charges.
func (c *CPU) SkipCycles(from, to uint64) {
	if c.ctx.Halted || to <= from {
		return
	}
	c.blameN(from, to-from)
}

// --- graduate ---

func (c *CPU) graduate(now uint64) int {
	n := 0
	for n < gradWidth && c.count > 0 {
		e := &c.rob[c.head]
		f := e.flags

		// Serializing instructions execute here, at the head,
		// non-speculatively.
		if f&cpu.UopSerial != 0 {
			if !c.serialize(now, e) {
				break
			}
			n++
			continue
		}

		if !e.done || e.doneAt > now {
			break
		}

		if f&cpu.UopMem != 0 && !e.eaOK {
			c.ctx.Faultf("%v: unmapped data address (pc %#x)", e.u.Inst.Op, e.pc)
			break
		}
		if f&cpu.UopLoad != 0 && c.loadRefresh(e) {
			// Another CPU wrote the location between this load's
			// speculative issue and its graduation (value-based
			// memory-ordering check, as in the R10000). Commit the load
			// with the coherent value — guaranteeing forward progress
			// even on heavily contended spin locations — and squash the
			// younger instructions that may have consumed the stale one.
			c.stats.Replays++
			c.stats.Squashed += uint64(c.squashAfter(c.head) + c.fqLen)
			c.fqLen = 0
			c.fetchPC = e.actualNext
			c.fetchReady = now + 1
			c.fetchStalled = false
			c.fetchFault = false
			c.commit(e)
			n++
			continue
		}
		if f&cpu.UopStore != 0 {
			if r, ok := c.mem.Access(now, c.id, e.ea, true); !ok {
				c.headRetry = c.retryAt(now, r)
				break
			}
			c.writeStore(e)
		}

		c.commit(e)
		n++
	}
	return n
}

// commit retires the head entry into architectural state.
func (c *CPU) commit(e *robEntry) {
	c.writeDest(e)
	c.ctx.PC = e.actualNext
	c.stats.Instructions++
	if c.prof != nil {
		c.prof.RetirePC(e.ppc)
	}
	c.release()
}

// writeDest updates the architectural register file from e.
func (c *CPU) writeDest(e *robEntry) {
	d := e.dest
	if d == isa.RegNone {
		return
	}
	if d >= isa.RegFPBase {
		c.ctx.FRegs[d-isa.RegFPBase] = e.fvalue
	} else {
		c.ctx.Regs[d] = e.value
	}
}

// release frees the head slot, clears the rename entry pointing at it,
// and detaches younger consumers (the committed value is now
// architectural, so they read the register file instead of a slot that
// may be reused). A consumer can become ready here: a forwarded load
// graduates in the cycle its doneAt arrives, before complete has made
// it available, and LL/SC results are never available in the window.
func (c *CPU) release() {
	slot := c.head
	if d := c.rob[slot].dest; d != isa.RegNone && int(c.writer[d]) == slot {
		c.writer[d] = -1
	}
	for m := c.consumers[slot]; m != 0; m &= m - 1 {
		ci := bits.TrailingZeros32(m)
		ce := &c.rob[ci]
		for s := range ce.srcProd {
			if int(ce.srcProd[s]) == slot {
				ce.srcProd[s] = -1
			}
		}
		if ce.waitOn &^= bit(slot); ce.waitOn == 0 && c.waiting&bit(ci) != 0 {
			c.ready |= bit(ci)
		}
	}
	keep := ^bit(slot)
	c.pending &= keep
	c.avail &= keep
	c.stores &= keep
	c.head = wrap(c.head + 1)
	c.count--
}

// loadRefresh re-reads a graduating load's location; if the value
// changed since the speculative read it stores the coherent value into e
// and reports true.
func (c *CPU) loadRefresh(e *robEntry) bool {
	switch e.u.Inst.Op {
	case isa.LW:
		if v := c.img.Read32(e.ea); v != e.value {
			e.value = v
			return true
		}
	case isa.LB:
		if v := uint32(c.img.Read8(e.ea)); v != e.value {
			e.value = v
			return true
		}
	case isa.LD:
		if bits := c.img.Read64(e.ea); bits != math.Float64bits(e.fvalue) {
			e.fvalue = math.Float64frombits(bits)
			return true
		}
	}
	return false
}

// writeStore performs the functional memory write of a graduating store.
func (c *CPU) writeStore(e *robEntry) {
	switch e.u.Inst.Op {
	case isa.SW:
		c.img.Write32(e.ea, e.storeVal)
	case isa.SB:
		c.img.Write8(e.ea, uint8(e.storeVal))
	case isa.SD:
		c.img.WriteF64(e.ea, e.storeFVal)
	}
}

// serialize handles SYSCALL/HALT/LL/SC at the ROB head. Reports whether
// the instruction graduated this cycle.
func (c *CPU) serialize(now uint64, e *robEntry) bool {
	in := &e.u.Inst
	switch in.Op {
	case isa.HALT:
		c.stats.Instructions++
		if c.prof != nil {
			c.prof.RetirePC(e.ppc)
		}
		c.ctx.Halted = true
		return false
	case isa.SYSCALL:
		c.ctx.PC = e.pc + 4
		extra := c.trap.Syscall(now, c.id, c.ctx, in.Imm)
		c.stats.Instructions++
		if c.prof != nil {
			c.prof.RetirePC(e.ppc)
		}
		c.flushAll(now)
		c.fetchPC = c.ctx.PC
		c.fetchReady = now + 1 + extra
		if c.ctx.Halted {
			return false
		}
		return true
	case isa.LL:
		if !e.issued {
			ea := c.ctx.Regs[in.R2] + uint32(in.Imm)
			pea, ok := c.ctx.Space.Translate(ea)
			if !ok {
				c.ctx.Faultf("ll: unmapped address %#x (pc %#x)", ea, e.pc)
				return false
			}
			res, accepted := c.mem.Access(now, c.id, pea, false)
			if !accepted {
				return false
			}
			e.issued = true
			e.ea, e.eaOK = pea, true
			e.doneAt = res.Done
			e.memLevel = res.Level
		}
		if e.doneAt > now+1 {
			e.done = true
			return false
		}
		c.mem.LLReserve(c.id, e.ea)
		e.value = c.img.Read32(e.ea)
		e.actualNext = e.pc + 4
		c.commit(e)
		return true
	case isa.SC:
		ea := c.ctx.Regs[in.R2] + uint32(in.Imm)
		pea, ok := c.ctx.Space.Translate(ea)
		if !ok {
			c.ctx.Faultf("sc: unmapped address %#x (pc %#x)", ea, e.pc)
			return false
		}
		if !c.mem.SCCheck(c.id, pea) {
			e.value = 0
		} else {
			if _, accepted := c.mem.Access(now, c.id, pea, true); !accepted {
				c.mem.LLReserve(c.id, pea) // restore the consumed reservation
				return false
			}
			c.img.Write32(pea, c.ctx.Regs[in.R1])
			e.value = 1
		}
		e.actualNext = e.pc + 4
		c.commit(e)
		return true
	}
	return false
}

// flushAll squashes every in-flight instruction and the fetch queue.
func (c *CPU) flushAll(now uint64) {
	if c.tr != nil {
		c.tr.Emit(obsv.Event{
			Cycle: now, Arg: uint32(c.count + c.fqLen),
			Kind: obsv.EvFlush, CPU: int8(c.id),
		})
	}
	for i := range c.writer {
		c.writer[i] = -1
	}
	c.head, c.tail, c.count = 0, 0, 0
	c.waiting, c.ready, c.pending, c.avail, c.stores = 0, 0, 0, 0, 0
	c.fqHead, c.fqLen = 0, 0
	c.fetchLine = invalidLine
	c.fetchStalled = false
	c.fetchFault = false
}

// --- complete: finish executed instructions, resolve branches ---

func (c *CPU) complete(now uint64) {
	// Make newly finished results available and handle branch
	// resolution in program order, so a mispredicted older branch
	// squashes younger work before that work can resolve. A load
	// forwarded from a store (or issued to an unmapped address) is done
	// at issue but its value is only visible from doneAt on, so
	// availability keys on doneAt, never on the done flag.
	next := uint64(cpu.NoWork)
	for rel := c.fromHead(c.pending); rel != 0; rel &= rel - 1 {
		idx := wrap(c.head + bits.TrailingZeros32(rel))
		e := &c.rob[idx]
		if e.doneAt > now {
			if e.doneAt < next {
				next = e.doneAt
			}
			continue
		}
		e.done = true
		c.pending &^= bit(idx)
		c.avail |= bit(idx)
		for m := c.consumers[idx] & c.waiting; m != 0; m &= m - 1 {
			ci := bits.TrailingZeros32(m)
			ce := &c.rob[ci]
			if ce.waitOn &^= bit(idx); ce.waitOn == 0 {
				c.ready |= bit(ci)
			}
		}
		if e.flags&cpu.UopControl == 0 {
			continue
		}
		c.stats.Branches++
		if e.actualNext != e.predNext {
			// Misprediction: squash younger entries, redirect fetch.
			c.stats.Mispredicts++
			squashed := c.squashAfter(idx) + c.fqLen
			c.stats.Squashed += uint64(squashed)
			if c.tr != nil {
				c.tr.Emit(obsv.Event{
					Cycle: now, Addr: e.pc, Arg: uint32(squashed),
					Kind: obsv.EvMispredict, CPU: int8(c.id),
				})
			}
			c.updateBTB(e)
			c.fetchPC = e.actualNext
			c.fetchReady = now + 1
			c.fetchStalled = false
			c.fetchFault = false
			c.fqLen = 0
			// Cut short: nextDone stays where it was, at or before now,
			// so the next cycle scans again.
			return
		}
		c.updateBTB(e)
	}
	c.nextDone = next
}

// fromHead rotates a slot mask so that bit k is the k-th oldest window
// entry: iterating the result with TrailingZeros32 visits slots
// (head+k) % windowSize in program order.
func (c *CPU) fromHead(mask uint32) uint32 { return bits.RotateLeft32(mask, -c.head) }

// squashAfter removes every entry younger than the one at slot and
// returns how many were removed.
func (c *CPU) squashAfter(slot int) int {
	n := wrap(c.tail - 1 - slot + windowSize)
	if n == 0 {
		return 0
	}
	var gone uint32 // squashed slots
	var regs uint64 // unified registers they renamed
	for i, idx := 0, wrap(slot+1); i < n; i, idx = i+1, wrap(idx+1) {
		gone |= bit(idx)
		if d := c.rob[idx].dest; d != isa.RegNone {
			regs |= 1 << d
			c.writer[d] = -1
		}
	}
	c.tail = wrap(slot + 1)
	c.count -= n
	// Restore rename visibility: the youngest surviving writer of each
	// register a squashed entry had claimed.
	if regs != 0 {
		for i, idx := 0, c.head; i < c.count; i, idx = i+1, wrap(idx+1) {
			if d := c.rob[idx].dest; d != isa.RegNone && regs&(1<<d) != 0 {
				c.writer[d] = int8(idx)
			}
		}
	}
	keep := ^gone
	c.waiting &= keep
	c.ready &= keep
	c.pending &= keep
	c.avail &= keep
	c.stores &= keep
	for i := range c.consumers {
		c.consumers[i] &= keep
	}
	return n
}

func (c *CPU) updateBTB(e *robEntry) {
	b := &c.btb[(e.pc>>2)%btbEntries]
	if e.actualNext != e.pc+4 {
		*b = btbEntry{tag: e.pc, target: e.actualNext, valid: true}
	} else if b.valid && b.tag == e.pc {
		b.valid = false
	}
}

// --- issue ---

// fuCopies is the per-cycle structural limit: the copies of each
// functional-unit class.
var fuCopies = func() (n [cpu.NumFUClasses]uint8) {
	for f := range n {
		n[f] = uint8(cpu.FUClass(f).Copies())
	}
	return n
}()

func (c *CPU) issue(now uint64) {
	free := fuCopies
	issued := 0
	for rel := c.fromHead(c.ready); rel != 0 && issued < issueWidth; rel &= rel - 1 {
		idx := wrap(c.head + bits.TrailingZeros32(rel))
		e := &c.rob[idx]
		class := e.u.Class
		if free[class] == 0 {
			continue
		}
		if e.flags&cpu.UopLoad != 0 {
			if !c.tryLoad(now, idx, e) {
				continue
			}
		} else {
			c.execute(now, e)
		}
		c.waiting &^= bit(idx)
		c.ready &^= bit(idx)
		c.pending |= bit(idx)
		if e.doneAt < c.nextDone {
			c.nextDone = e.doneAt
		}
		free[class]--
		issued++
	}
}

// readSrc returns the integer value of unified register r for entry e.
func (c *CPU) readSrc(e *robEntry, r uint8) uint32 {
	for s, p := range e.srcProd {
		if p >= 0 && e.u.Src[s] == r {
			return c.rob[p].value
		}
	}
	if r < 32 {
		return c.ctx.Regs[r]
	}
	return 0
}

// readSrcF returns the FP value of unified register r for entry e.
func (c *CPU) readSrcF(e *robEntry, r uint8) float64 {
	u := r + isa.RegFPBase
	for s, p := range e.srcProd {
		if p >= 0 && e.u.Src[s] == u {
			return c.rob[p].fvalue
		}
	}
	return c.ctx.FRegs[r]
}

// tryLoad issues a load: address generation, store-queue check, cache
// access. Returns false if it must retry later.
func (c *CPU) tryLoad(now uint64, idx int, e *robEntry) bool {
	in := &e.u.Inst
	ea := c.readSrc(e, in.R2) + uint32(in.Imm)
	pea, ok := c.ctx.Space.Translate(ea)
	if !ok {
		// Wrong-path loads may compute garbage addresses; complete
		// harmlessly here. If this load is on the right path it faults
		// at graduation (eaOK stays false).
		e.issued, e.done = true, true
		e.doneAt = now + 1
		e.value, e.fvalue = 0, 0
		e.actualNext = e.pc + 4
		return true
	}
	e.ea, e.eaOK = pea, true

	// Store-to-load ordering: scan older stores, oldest first.
	lSize := uint32(e.u.Size)
	older := c.fromHead(c.stores) & (bit(wrap(idx-c.head+windowSize)) - 1)
	for ; older != 0; older &= older - 1 {
		se := &c.rob[wrap(c.head+bits.TrailingZeros32(older))]
		if !se.issued || !se.done || se.doneAt > now {
			c.blocked |= bit(idx)
			return false // older store address unknown: wait
		}
		sSize := uint32(se.u.Size)
		if se.ea+sSize <= pea || pea+lSize <= se.ea {
			continue // disjoint
		}
		if se.ea == pea && sSize == lSize {
			// Exact match: forward the store's data.
			if se.u.Kind == cpu.KindStoreF {
				e.fvalue = se.storeFVal
			} else {
				e.value = se.storeVal
			}
			e.issued, e.done, e.fwd = true, true, true
			e.doneAt = now + 1
			e.actualNext = e.pc + 4
			return true
		}
		// Partial overlap: wait until the store graduates and writes
		// memory, then the load reads the merged bytes.
		c.blocked |= bit(idx)
		return false
	}

	res, accepted := c.mem.Access(now, c.id, pea, false)
	if !accepted {
		if at := c.retryAt(now, res); at != cpu.NoWork {
			c.blocked |= bit(idx)
			c.issueRetry = min(c.issueRetry, at)
		}
		return false
	}
	e.issued = true
	e.doneAt = res.Done
	e.memLevel = res.Level
	e.actualNext = e.pc + 4
	switch in.Op {
	case isa.LW:
		e.value = c.img.Read32(pea)
	case isa.LB:
		e.value = uint32(c.img.Read8(pea))
	case isa.LD:
		e.fvalue = c.img.ReadF64(pea)
	}
	return true
}

// retryAt returns the cycle a reference refused at now is worth retrying
// at, as the memory system bounded it, or cpu.NoWork when it is to be
// retried next cycle: the bound is no later than that, or a tracer wants
// the refusal event of every retried cycle.
func (c *CPU) retryAt(now uint64, refused memsys.Result) uint64 {
	if c.tr != nil || refused.Done <= now+1 {
		return cpu.NoWork
	}
	return refused.Done
}

// execute performs a non-load instruction's computation at issue.
func (c *CPU) execute(now uint64, e *robEntry) {
	u := e.u
	in := &u.Inst
	op := in.Op
	e.issued = true
	e.doneAt = now + uint64(u.Lat)
	e.actualNext = e.pc + 4

	switch u.Kind {
	case cpu.KindStore, cpu.KindStoreF: // SW, SB, SD (SC handled at head)
		// An unmapped address leaves eaOK false, and graduation faults if
		// this store turns out to be on the right path; until then younger
		// loads order against address 0 (tryLoad reads ea, not eaOK).
		e.ea, e.eaOK = c.ctx.Space.Translate(c.readSrc(e, in.R2) + uint32(in.Imm))
		if !e.eaOK {
			e.ea = 0
		}
		if u.Kind == cpu.KindStoreF {
			e.storeFVal = c.readSrcF(e, in.R1)
		} else {
			e.storeVal = c.readSrc(e, in.R1)
		}
	case cpu.KindBranch:
		if cpu.BranchTaken(op, c.readSrc(e, in.R1), c.readSrc(e, in.R2)) {
			e.actualNext = uint32(int64(e.pc) + 4 + int64(in.Imm)*4)
		}
	case cpu.KindJ:
		e.actualNext = uint32(in.Imm) * 4
	case cpu.KindJAL:
		e.value = e.pc + 4
		e.actualNext = uint32(in.Imm) * 4
	case cpu.KindJR:
		e.actualNext = c.readSrc(e, in.R2)
	case cpu.KindJALR:
		e.value = e.pc + 4
		e.actualNext = c.readSrc(e, in.R2)
	case cpu.KindCPUID:
		e.value = uint32(c.id)
	case cpu.KindFPUnary:
		e.fvalue = cpu.FPOp(op, c.readSrcF(e, in.R2), 0)
	case cpu.KindFPCmp:
		e.value = cpu.FPCmp(op, c.readSrcF(e, in.R2), c.readSrcF(e, in.R3))
	case cpu.KindCVTIF:
		e.fvalue = float64(int32(c.readSrc(e, in.R2)))
	case cpu.KindCVTFI:
		e.value = cpu.CvtFI(c.readSrcF(e, in.R2))
	case cpu.KindFP:
		e.fvalue = cpu.FPOp(op, c.readSrcF(e, in.R2), c.readSrcF(e, in.R3))
	case cpu.KindALU:
		e.value = cpu.ALU(op, c.readSrc(e, in.R2), c.readSrc(e, in.R3), 0)
	case cpu.KindALUImm:
		e.value = cpu.ALU(op, c.readSrc(e, in.R2), 0, in.Imm)
	}
}

// --- dispatch ---

func (c *CPU) dispatch(now uint64) {
	if c.count == windowSize && c.fqLen > 0 && c.tr != nil {
		c.tr.Emit(obsv.Event{Cycle: now, Kind: obsv.EvROBFull, CPU: int8(c.id)})
	}
	n := 0
	for n < issueWidth && c.fqLen > 0 && c.count < windowSize {
		fe := &c.fq[c.fqHead]
		c.fqHead = (c.fqHead + 1) & (fetchQueue - 1)
		c.fqLen--
		slot := c.tail
		e := &c.rob[slot]
		u := fe.u
		e.u, e.flags, e.dest = u, u.Flags, u.Dest
		e.pc, e.ppc = fe.pc, fe.ppc
		e.predNext, e.actualNext = fe.predNext, fe.predNext
		// What a stage may read before this instruction writes it starts
		// clean; results, store data and ea are written first (tryLoad,
		// execute, serialize) and keep the previous occupant's bits.
		e.doneAt, e.issued, e.done = 0, false, false
		e.eaOK, e.fwd, e.memLevel = false, false, 0
		e.srcProd = [maxSrcs]int8{-1, -1}
		e.waitOn = 0
		for i := 0; i < int(u.NSrc); i++ {
			if p := c.writer[u.Src[i]]; p >= 0 {
				e.srcProd[i] = p
				c.consumers[p] |= bit(slot)
				e.waitOn |= bit(int(p)) &^ c.avail
			}
		}
		c.consumers[slot] = 0
		if e.dest != isa.RegNone {
			c.writer[e.dest] = int8(slot)
		}
		if e.flags&cpu.UopSerial == 0 {
			c.waiting |= bit(slot)
			if e.waitOn == 0 {
				c.ready |= bit(slot)
			}
			if e.flags&cpu.UopStore != 0 {
				c.stores |= bit(slot)
			}
		}
		c.tail = wrap(c.tail + 1)
		c.count++
		n++
	}
}

// --- fetch ---

func (c *CPU) fetch(now uint64) {
	if c.fetchStalled || c.fetchFault || now < c.fetchReady {
		return
	}
	for n := 0; n < fetchWidth && c.fqLen < fetchQueue; n++ {
		pc := c.fetchPC
		ppc, ok := c.ctx.Space.Translate(pc)
		if !ok {
			c.fetchFault = true
			return
		}
		if ppc&c.lineMask != c.fetchLine {
			r := c.mem.IFetch(now, c.id, ppc)
			c.fetchLine = ppc & c.lineMask
			c.fetchLvl = r.Level
			if r.Done > now+1 {
				c.fetchReady = r.Done
				return
			}
		}
		// ppc below textBase wraps to a huge index, so one compare
		// covers both ends of the region.
		i := (ppc - c.textBase) / 4
		if i >= uint32(len(c.text)) {
			if c.text, c.textBase, ok = c.code.TextAt(ppc); !ok {
				c.fetchFault = true
				return
			}
			i = (ppc - c.textBase) / 4
		}
		u := &c.text[i]
		next := c.predict(pc, u)
		c.fq[(c.fqHead+c.fqLen)&(fetchQueue-1)] = fetchEntry{pc: pc, ppc: ppc, u: u, predNext: next}
		c.fqLen++
		c.fetchPC = next
		if u.Flags&cpu.UopFetchStop != 0 {
			// Serialize: nothing is fetched past a trap boundary.
			c.fetchStalled = true
			return
		}
	}
}

// predict returns the predicted next PC for u at pc.
func (c *CPU) predict(pc uint32, u *cpu.Uop) uint32 {
	switch f := u.Flags; {
	case f&cpu.UopJump != 0:
		return uint32(u.Inst.Imm) * 4
	case f&cpu.UopBTB != 0:
		if b := &c.btb[(pc>>2)%btbEntries]; b.valid && b.tag == pc {
			return b.target
		}
	}
	return pc + 4
}

// --- stall attribution (blame the head) ---

// blame charges the zero-graduation cycle to its cause, following the
// paper's Figure 11 categories: instruction stalls, data stalls, and
// pipeline stalls (which include the shared-L1 hit time and bank
// contention, surfaced here as L1-level load waits).
func (c *CPU) blame(now uint64) { c.blameN(now, 1) }

// blameN charges n consecutive zero-graduation cycles starting at now.
// The bulk form exists for SkipCycles: across a window NextWork proved
// inert, the head entry (and the cause it would be blamed on) cannot
// change, so charging n cycles at once is identical to n per-cycle
// blame calls.
func (c *CPU) blameN(now, n uint64) {
	if c.count == 0 {
		c.stats.IStall[c.fetchLvl] += n
		if c.prof != nil {
			// Charge the PC the front end is trying to fetch; Translate
			// is pure, and only paid when profiling is on.
			if ppc, ok := c.ctx.Space.Translate(c.fetchPC); ok {
				c.prof.IStallPC(ppc, uint8(c.fetchLvl), n)
			}
		}
		return
	}
	e := &c.rob[c.head]
	switch {
	case e.issued && !e.fwd && e.flags&cpu.UopLoad != 0 && (!e.done || e.doneAt > now):
		if e.memLevel == memsys.LvlL1 {
			c.stats.PipeStall += n // extra hit latency / bank contention
			if c.prof != nil {
				c.prof.PipeStallPC(e.ppc, n)
			}
		} else {
			c.stats.DStall[e.memLevel] += n
			if c.prof != nil {
				c.prof.DStallPC(e.ppc, uint8(e.memLevel), n)
			}
		}
	case e.flags&cpu.UopStore != 0 && e.done && e.doneAt <= now:
		c.stats.DStall[memsys.LvlL2] += n // write buffer backpressure
		if c.prof != nil {
			c.prof.DStallPC(e.ppc, uint8(memsys.LvlL2), n)
		}
	default:
		c.stats.PipeStall += n
		if c.prof != nil {
			c.prof.PipeStallPC(e.ppc, n)
		}
	}
}
