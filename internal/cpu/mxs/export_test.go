package mxs

import (
	"fmt"
	"math/bits"
	"unsafe"

	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/memsys"
)

// serializes reports whether op executes only at the ROB head,
// non-speculatively, and so never enters the issue masks: the reference
// for cpu.UopSerial.
func serializes(op isa.Op) bool {
	return op == isa.SYSCALL || op == isa.HALT || op == isa.LL || op == isa.SC
}

// CheckMasks recomputes every slot mask, the consumer sets, the wait
// sets, the completion bound and the rename table from the robEntry
// fields of the live window and the isa predicates, the way the
// scan-based pipeline derived them on the fly, and reports the first
// disagreement with the incrementally maintained state. now is the
// cycle of the Tick that just returned.
func (c *CPU) CheckMasks(now uint64) error {
	if c.count < 0 || c.count > windowSize || (c.head+c.count)%windowSize != c.tail {
		return fmt.Errorf("ring: head %d tail %d count %d", c.head, c.tail, c.count)
	}
	if c.fqLen < 0 || c.fqLen > fetchQueue || c.fqHead < 0 || c.fqHead >= fetchQueue {
		return fmt.Errorf("fetch ring: head %d len %d", c.fqHead, c.fqLen)
	}
	var live, waiting, ready, pending, avail, stores uint32
	var consumers [windowSize]uint32
	var writer [64]int8
	for r := range writer {
		writer[r] = -1
	}
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, (idx+1)%windowSize {
		e := &c.rob[idx]
		op := e.u.Inst.Op
		live |= bit(idx)
		if e.flags != e.u.Flags || e.dest != e.u.Inst.Dest() {
			return fmt.Errorf("slot %d: flags %#x dest %d are not those of %v", idx, e.flags, e.dest, e.u.Inst)
		}
		if e.dest != isa.RegNone {
			writer[e.dest] = int8(idx)
		}
		if serializes(op) {
			continue
		}
		switch {
		case !e.issued:
			waiting |= bit(idx)
		case e.done && e.doneAt <= now:
			avail |= bit(idx)
		default:
			pending |= bit(idx)
			if c.nextDone > e.doneAt {
				return fmt.Errorf("cycle %d: nextDone %d, pending slot %d is done at %d", now, c.nextDone, idx, e.doneAt)
			}
		}
		if op.IsStore() {
			stores |= bit(idx)
		}
	}
	// Second pass: avail is complete, so readiness is decidable.
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, (idx+1)%windowSize {
		e := &c.rob[idx]
		var waitOn uint32
		for s := range e.srcProd {
			p := int(e.srcProd[s])
			if p < 0 {
				continue
			}
			if s >= int(e.u.NSrc) {
				return fmt.Errorf("slot %d: source %d is renamed, %v has %d", idx, s, e.u.Inst, e.u.NSrc)
			}
			if live&bit(p) == 0 || (p-c.head+windowSize)%windowSize >= i {
				return fmt.Errorf("slot %d source %d: producer slot %d is not an older live entry", idx, s, p)
			}
			if c.rob[p].dest != e.u.Src[s] {
				return fmt.Errorf("slot %d source %d: reads r%d, producer slot %d writes r%d",
					idx, s, e.u.Src[s], p, c.rob[p].dest)
			}
			consumers[p] |= bit(idx)
			waitOn |= bit(p) &^ avail
		}
		if waiting&bit(idx) == 0 {
			continue
		}
		if e.waitOn != waitOn {
			return fmt.Errorf("cycle %d: slot %d waits on %#08x, its producers outside avail are %#08x", now, idx, e.waitOn, waitOn)
		}
		if waitOn == 0 {
			ready |= bit(idx)
		}
	}
	for _, m := range []struct {
		name      string
		got, want uint32
	}{
		{"waiting", c.waiting, waiting},
		{"ready", c.ready, ready},
		{"pending", c.pending, pending},
		{"avail", c.avail, avail},
		{"stores", c.stores, stores},
	} {
		if m.got != m.want {
			return fmt.Errorf("cycle %d: %s mask %#08x, window entries say %#08x (live %#08x)",
				now, m.name, m.got, m.want, live)
		}
	}
	if c.blocked&^c.ready != 0 {
		return fmt.Errorf("cycle %d: blocked mask %#08x has entries outside ready %#08x", now, c.blocked, c.ready)
	}
	for m := c.blocked; m != 0; m &= m - 1 {
		if idx := bits.TrailingZeros32(m); c.rob[idx].u.Flags&cpu.UopLoad == 0 {
			return fmt.Errorf("cycle %d: blocked slot %d holds %v, not a load", now, idx, c.rob[idx].u.Inst)
		}
	}
	for _, r := range []struct {
		name string
		at   uint64
	}{{"issueRetry", c.issueRetry}, {"headRetry", c.headRetry}} {
		if r.at <= now+1 {
			return fmt.Errorf("cycle %d: %s %d is neither reset nor past the next cycle", now, r.name, r.at)
		}
	}
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, (idx+1)%windowSize {
		if c.consumers[idx] != consumers[idx] {
			return fmt.Errorf("cycle %d: consumers[%d] %#08x, true consumers %#08x (live %#08x)",
				now, idx, c.consumers[idx], consumers[idx], live)
		}
	}
	if c.writer != writer {
		return fmt.Errorf("cycle %d: rename table %v, window entries say %v", now, c.writer, writer)
	}
	return nil
}

// Snapshot is the pipeline state a tick that does nothing leaves alone:
// ring positions, slot masks, front end, and the architectural PC. Of
// pending and avail it holds the union and the entries still executing:
// a load that was done at issue (forwarded, unmapped) moves from one to
// the other at its doneAt whenever complete next runs, which nothing but
// a waiting consumer can observe, and NextWork bounds those.
type Snapshot struct {
	Head, Tail, Count                         int
	Waiting, Ready, Executing, Issued, Stores uint32
	FqLen                                     int
	FetchPC, FetchLine, PC                    uint32
	FetchReady                                uint64
}

func (c *CPU) Snapshot() Snapshot {
	executing := c.pending
	for m := c.pending; m != 0; m &= m - 1 {
		if p := bits.TrailingZeros32(m); c.rob[p].done {
			executing &^= bit(p)
		}
	}
	return Snapshot{
		c.head, c.tail, c.count,
		c.waiting, c.ready, executing, c.pending | c.avail, c.stores,
		c.fqLen,
		c.fetchPC, c.fetchLine, c.ctx.PC,
		c.fetchReady,
	}
}

// IRQLive reports whether the CPU's interrupt line is asserted.
func (c *CPU) IRQLive() bool { return *c.line }

// WrapMem puts wrap(the CPU's memory system) in its place.
func (c *CPU) WrapMem(wrap func(memsys.System) memsys.System) { c.mem = wrap(c.mem) }

// NextWorkScan is the quiescence proof as the scan-based pipeline
// computed it: a walk over every window entry that reads only robEntry
// fields and bounds by timestamp alone. It answers now+1 to everything
// the memory system or an older store holds up, so it is the floor:
// NextWork may prove a longer sleep, never a shorter one.
func (c *CPU) NextWorkScan(now uint64) uint64 {
	if c.ctx.Halted {
		return cpu.NoWork
	}
	if c.irqStop || *c.line {
		return now + 1
	}
	wake := uint64(cpu.NoWork)
	if !c.fetchStalled && !c.fetchFault && c.fqLen < fetchQueue {
		if c.fetchReady <= now+1 {
			return now + 1
		}
		wake = c.fetchReady
	}
	if c.fqLen > 0 && c.count < windowSize {
		return now + 1
	}
	if c.tr != nil && c.count == windowSize && c.fqLen > 0 {
		return now + 1
	}
	for i, idx := 0, c.head; i < c.count; i, idx = i+1, (idx+1)%windowSize {
		e := &c.rob[idx]
		if serializes(e.u.Inst.Op) {
			if idx == c.head {
				return now + 1
			}
			continue
		}
		if !e.issued {
			ready := now
			unknown := false
			for _, p := range e.srcProd {
				if p < 0 {
					continue
				}
				pe := &c.rob[p]
				if !pe.issued {
					unknown = true
					break
				}
				if !pe.done && pe.doneAt <= now {
					return now + 1
				}
				if pe.doneAt > ready {
					ready = pe.doneAt
				}
			}
			if unknown {
				continue
			}
			if ready <= now {
				return now + 1
			}
			if ready < wake {
				wake = ready
			}
			continue
		}
		if !e.done {
			if e.doneAt <= now {
				return now + 1
			}
			if e.doneAt < wake {
				wake = e.doneAt
			}
			continue
		}
		if idx == c.head {
			if e.doneAt <= now {
				return now + 1
			}
			if e.doneAt < wake {
				wake = e.doneAt
			}
		}
	}
	if wake <= now {
		return now + 1
	}
	return wake
}

// BTBEntrySize is the size of one BTB entry in bytes.
const BTBEntrySize = unsafe.Sizeof(btbEntry{})
