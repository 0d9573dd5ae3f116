// Package mipsy implements the paper's simple CPU model (Section 3.1):
// an in-order instruction-set interpreter with a one-cycle result
// latency and a one-cycle repeat rate that stalls for every memory
// operation taking longer than a cycle. All time spent in the memory
// system therefore contributes directly to execution time, which makes
// the Figure 4-10 breakdowns easy to interpret.
package mipsy

import (
	"fmt"

	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/prof"
)

const invalidLine = ^uint32(0)

// CPU is one in-order processor driving a memory system.
type CPU struct {
	id   int
	ctx  *cpu.Context
	mem  memsys.System
	code cpu.CodeSource
	trap cpu.TrapHandler
	img  *mem.Image
	ihit memsys.IFetchHitter // whether mem's IFetch hits; nil: never asked

	lineMask  uint32
	nextFree  uint64
	fetchLine uint32

	// The program region the last fetch hit (see cpu.CodeSource).
	text     []cpu.Uop
	textBase uint32

	irq  cpu.InterruptSource
	line *bool // the CPU's interrupt line (irq.Line); noLine without a source

	stats cpu.StallStats
	prof  *prof.Profiler
}

// SetInterruptSource attaches an external interrupt line, polled between
// instructions.
func (c *CPU) SetInterruptSource(src cpu.InterruptSource) {
	c.irq, c.line = src, src.Line(c.id)
}

// noLine is the interrupt line of a CPU without an interrupt source:
// nothing raises it.
var noLine bool

// SetProfiler attaches a cycle-attribution profiler: every retired
// instruction and stall cycle is charged to its physical PC, in
// lockstep with the StallStats counters. nil (the default) keeps the
// hook sites on their zero-cost path.
func (c *CPU) SetProfiler(p *prof.Profiler) { c.prof = p }

// New builds a Mipsy CPU with hardware id id executing ctx. If ihit is
// not nil, a run ahead crosses the fetch lines it says sys's IFetch hits
// as it runs through CPU-local instructions. ihit must answer for the
// I-caches sys fetches through; sys may wrap the system that implements
// it (a counting probe), so that the wrapper still sees every fetch.
func New(id int, ctx *cpu.Context, sys memsys.System, ihit memsys.IFetchHitter, code cpu.CodeSource, trap cpu.TrapHandler, img *mem.Image, lineBytes uint32) *CPU {
	if trap == nil {
		trap = cpu.NopTrap{}
	}
	return &CPU{
		id:        id,
		ctx:       ctx,
		mem:       sys,
		code:      code,
		trap:      trap,
		img:       img,
		ihit:      ihit,
		lineMask:  ^(lineBytes - 1),
		fetchLine: invalidLine,
		line:      &noLine,
	}
}

// Context returns the context currently executing on this CPU.
func (c *CPU) Context() *cpu.Context { return c.ctx }

// Stats returns the stall/instruction counters accumulated so far.
func (c *CPU) Stats() cpu.StallStats { return c.stats }

// Done reports whether this CPU has stopped (halt or fault).
func (c *CPU) Done() bool { return c.ctx.Halted }

// FlushFetchBuffer invalidates the fetch line buffer; the kernel's
// context switches call this because the new context's PC translates
// differently.
func (c *CPU) FlushFetchBuffer() { c.fetchLine = invalidLine }

// NextWork implements the scheduler's quiescence probe: the earliest
// cycle at or after now at which Tick can do anything. While blocked on
// a memory reference the CPU is completely inert until nextFree — every
// stall cycle was already charged when the access was issued — so the
// cycle loop may jump straight there. A pending interrupt changes
// nothing: Tick only polls the line once the CPU is free again, so
// delivery still happens at nextFree, exactly as in the per-cycle loop.
func (c *CPU) NextWork(now uint64) uint64 {
	if c.ctx.Halted {
		return cpu.NoWork
	}
	if c.nextFree > now {
		return c.nextFree
	}
	return now
}

// ExactHints declares Tick's wake cycle exact to the cycle loop: it is
// nextFree, which NextWork answers at every cycle before it, so a
// quiescence jump takes it without asking NextWork again.
func (c *CPU) ExactHints() {}

// Tick does the CPU's work at cycle now (deliver an interrupt, or fetch
// and execute one instruction, or nothing while a memory reference
// blocks it), then runs ahead through the instructions that follow, and
// returns the scheduler's quiescence hint (see core.Core): nextFree,
// which after an executed instruction is exactly the next cycle this CPU
// can do anything, and during a memory stall is the cycle the blocking
// access completes. The hint costs nothing — nextFree is already in hand
// on every path.
func (c *CPU) Tick(now uint64) uint64 {
	c.step(now)
	if c.irq != nil {
		if bound := c.irq.RunAheadBound(); c.nextFree < bound {
			c.runAhead(bound)
		}
	}
	if c.ctx.Halted {
		return cpu.NoWork
	}
	if c.nextFree > now {
		return c.nextFree
	}
	// Faulted (but not halted) or an unreached corner: stay per-cycle.
	return now + 1
}

// runAhead executes the instructions after the one step ran, each at
// its own cycle nextFree, which is the cycle the one-instruction tick
// executes it at, for as long as that cycle is below bound and the
// instruction sits in the text region already held (no TextAt).
//
// A CPU-local instruction (cpu.UopLocal: not a memory operation, SYSCALL
// or HALT) reads and writes nothing but ctx, stats and nextFree if its
// line is the fetch line already held, and nothing else but the CPU's
// own I-cache, whose state and counters no other CPU touches, if its
// line is one ihit says hits (memsys.IFetchHitter). Nobody outside the
// CPU looks at any of those before bound (cpu.InterruptSource), so
// executing it now or in a tick of its own is the same run.
//
// Any other instruction but SYSCALL and HALT (a load, a store, LL, SC,
// or the first instruction of a line the I-cache misses) also runs if
// its cycle is below the shared bound, asked once, when the run first
// reaches one: no other CPU acts below it, so its IFetch, Access,
// SCCheck, LLReserve and image accesses come in the order the
// one-instruction tick makes them. A refused reference stays at its PC
// and is retried at the next cycle, as in its own ticks. The instruction
// is looked at before its line is fetched, so a run never fetches the
// line of a trap it will not execute.
//
// The instruction that ends a run is left for the tick at its own cycle.
// The interrupt line is polled once, not per instruction: it cannot rise
// below bound, but it may be live already when the tick found the CPU
// still blocked, and the instruction at nextFree then belongs to the
// interrupt.
func (c *CPU) runAhead(bound uint64) {
	ctx := c.ctx
	if ctx.Halted || *c.line {
		return
	}
	// The shared bound, once asked for. An answer at or below the
	// instruction's cycle ends the run, so zero means not asked yet.
	shared := uint64(0)
	for c.nextFree < bound {
		ppc, ok := ctx.Space.Translate(ctx.PC)
		if !ok {
			return
		}
		i := (ppc - c.textBase) / 4
		if i >= uint32(len(c.text)) {
			return
		}
		u := &c.text[i]
		if u.Flags&cpu.UopLocal != 0 && (ppc&c.lineMask == c.fetchLine || c.hitLine(c.nextFree, ppc)) {
			c.execute(c.nextFree, ppc, u)
			continue
		}
		if u.Flags&cpu.UopFetchStop != 0 {
			return
		}
		cur := c.nextFree
		if shared == 0 {
			shared = c.irq.SharedBound(c.id)
		}
		if cur >= shared {
			return
		}
		if ppc&c.lineMask != c.fetchLine {
			cur = c.fetch(cur, ppc)
		}
		c.execute(cur, ppc, u)
		if ctx.Halted {
			return // a data reference faulted
		}
	}
}

// step executes the cycle: deliver a pending interrupt at the
// instruction boundary, or fetch and run one instruction if the CPU is
// free.
func (c *CPU) step(now uint64) {
	ctx := c.ctx
	if ctx.Halted || now < c.nextFree {
		return
	}
	if *c.line {
		// Deliver at the instruction boundary: the PC is the resume point.
		c.irq.AckInterrupt(c.id)
		extra := c.trap.Syscall(now, c.id, ctx, cpu.IRQ)
		c.fetchLine = invalidLine
		c.nextFree = now + 1 + extra
		return
	}
	pc := ctx.PC
	ppc, ok := ctx.Space.Translate(pc)
	if !ok {
		ctx.Faultf("instruction fetch from unmapped address %#x", pc)
		return
	}

	cur := now
	if ppc&c.lineMask != c.fetchLine {
		cur = c.fetch(cur, ppc)
	}

	// ppc below textBase wraps to a huge index, so one compare covers
	// both ends of the region.
	i := (ppc - c.textBase) / 4
	if i >= uint32(len(c.text)) {
		if c.text, c.textBase, ok = c.code.TextAt(ppc); !ok {
			ctx.Faultf("no code at %#x (pc %#x)", ppc, pc)
			return
		}
		i = (ppc - c.textBase) / 4
	}

	c.execute(cur, ppc, &c.text[i])
}

// fetch fetches the line holding ppc at cycle cur, charging the stall,
// and returns the cycle the instruction at ppc executes at: cur, or the
// cycle before the line arrives.
func (c *CPU) fetch(cur uint64, ppc uint32) uint64 {
	r := c.mem.IFetch(cur, c.id, ppc)
	c.fetchLine = ppc & c.lineMask
	if r.Done > cur+1 {
		c.stats.IStall[r.Level] += r.Done - (cur + 1)
		if c.prof != nil {
			c.prof.IStallPC(ppc, uint8(r.Level), r.Done-(cur+1))
		}
		cur = r.Done - 1 //simlint:allow cycleflow — r.Done > cur+1 here, so r.Done >= 2
	}
	return cur
}

// hitLine fetches the line holding ppc at cycle cur if ihit says the
// fetch hits, and reports whether it did. A hit arrives at the next
// cycle, so fetch charges no stall and returns cur.
func (c *CPU) hitLine(cur uint64, ppc uint32) bool {
	if c.ihit == nil || !c.ihit.IFetchHit(c.id, ppc) {
		return false
	}
	c.fetch(cur, ppc)
	return true
}

// execute runs one instruction whose execution cycle is cur (physical
// PC ppc, for profiling). It sets ctx.PC and c.nextFree.
func (c *CPU) execute(cur uint64, ppc uint32, u *cpu.Uop) {
	ctx := c.ctx
	in := &u.Inst
	next := ctx.PC + 4
	done := cur + 1

	// One case per cpu.Kind: a dense switch the compiler makes a jump
	// table.
	switch u.Kind {
	case cpu.KindALU:
		c.setReg(in.R1, cpu.ALU(in.Op, ctx.Regs[in.R2], ctx.Regs[in.R3], 0))
	case cpu.KindALUImm:
		c.setReg(in.R1, cpu.ALU(in.Op, ctx.Regs[in.R2], 0, in.Imm))
	case cpu.KindLoad, cpu.KindStore, cpu.KindStoreF:
		if !c.executeMem(cur, ppc, u, &done) {
			return // structural stall or fault; retry or stop
		}
	case cpu.KindBranch:
		if cpu.BranchTaken(in.Op, ctx.Regs[in.R1], ctx.Regs[in.R2]) {
			next = uint32(int64(ctx.PC) + 4 + int64(in.Imm)*4)
		}
	case cpu.KindJ:
		next = uint32(in.Imm) * 4
	case cpu.KindJAL:
		ctx.Regs[isa.RegRA] = ctx.PC + 4
		next = uint32(in.Imm) * 4
	case cpu.KindJR:
		next = ctx.Regs[in.R2]
	case cpu.KindJALR:
		t := ctx.Regs[in.R2]
		c.setReg(in.R1, ctx.PC+4)
		next = t
	case cpu.KindFP:
		ctx.FRegs[in.R1] = cpu.FPOp(in.Op, ctx.FRegs[in.R2], ctx.FRegs[in.R3])
	case cpu.KindFPUnary:
		ctx.FRegs[in.R1] = cpu.FPOp(in.Op, ctx.FRegs[in.R2], 0)
	case cpu.KindFPCmp:
		c.setReg(in.R1, cpu.FPCmp(in.Op, ctx.FRegs[in.R2], ctx.FRegs[in.R3]))
	case cpu.KindCVTIF:
		ctx.FRegs[in.R1] = float64(int32(ctx.Regs[in.R2]))
	case cpu.KindCVTFI:
		c.setReg(in.R1, cpu.CvtFI(ctx.FRegs[in.R2]))
	case cpu.KindCPUID:
		c.setReg(in.R1, uint32(c.id))
	case cpu.KindSyscall:
		ctx.PC = next
		extra := c.trap.Syscall(cur, c.id, ctx, in.Imm)
		c.fetchLine = invalidLine // the handler may have switched spaces
		c.stats.Instructions++
		if c.prof != nil {
			c.prof.RetirePC(ppc)
		}
		c.nextFree = done + extra
		return
	case cpu.KindHalt:
		ctx.Halted = true
		c.stats.Instructions++
		if c.prof != nil {
			c.prof.RetirePC(ppc)
		}
		return
	default:
		panic(fmt.Sprintf("mipsy: no case for %v's kind %d", in.Op, u.Kind))
	}

	ctx.PC = next
	c.stats.Instructions++
	if c.prof != nil {
		c.prof.RetirePC(ppc)
	}
	c.nextFree = done
}

// executeMem handles loads and stores. It returns false if the
// instruction could not complete this cycle (structural refusal or
// fault); on refusal the PC is left unchanged so the instruction
// retries.
func (c *CPU) executeMem(cur uint64, ppc uint32, u *cpu.Uop, done *uint64) bool {
	ctx := c.ctx
	in := &u.Inst
	ea := ctx.Regs[in.R2] + uint32(in.Imm)
	pea, ok := ctx.Space.Translate(ea)
	if !ok {
		ctx.Faultf("%v: unmapped data address %#x (pc %#x)", in.Op, ea, ctx.PC)
		return false
	}

	// Store-conditional that lost its reservation performs no memory
	// access at all.
	if in.Op == isa.SC && !c.mem.SCCheck(c.id, pea) {
		c.setReg(in.R1, 0)
		ctx.PC += 4
		c.stats.Instructions++
		if c.prof != nil {
			c.prof.RetirePC(ppc)
		}
		c.nextFree = cur + 1
		return false // PC already advanced; skip the caller's epilogue
	}

	res, accepted := c.mem.Access(cur, c.id, pea, u.Flags&cpu.UopStore != 0)
	if !accepted {
		// MSHRs or write buffer full: stall one cycle and retry.
		c.stats.DStall[res.Level]++
		if c.prof != nil {
			c.prof.DStallPC(ppc, uint8(res.Level), 1)
		}
		c.nextFree = cur + 1
		return false
	}

	switch in.Op {
	case isa.LW:
		c.setReg(in.R1, c.img.Read32(pea))
	case isa.LB:
		c.setReg(in.R1, uint32(c.img.Read8(pea)))
	case isa.LD:
		ctx.FRegs[in.R1] = c.img.ReadF64(pea)
	case isa.LL:
		c.mem.LLReserve(c.id, pea)
		c.setReg(in.R1, c.img.Read32(pea))
	case isa.SW:
		c.img.Write32(pea, ctx.Regs[in.R1])
	case isa.SB:
		c.img.Write8(pea, uint8(ctx.Regs[in.R1]))
	case isa.SD:
		c.img.WriteF64(pea, ctx.FRegs[in.R1])
	case isa.SC:
		c.img.Write32(pea, ctx.Regs[in.R1])
		c.setReg(in.R1, 1)
	}

	if res.Done > cur+1 {
		c.stats.DStall[res.Level] += res.Done - (cur + 1)
		if c.prof != nil {
			c.prof.DStallPC(ppc, uint8(res.Level), res.Done-(cur+1))
		}
		*done = res.Done
	}
	return true
}

func (c *CPU) setReg(r uint8, v uint32) {
	if r != 0 {
		c.ctx.Regs[r] = v
	}
}
