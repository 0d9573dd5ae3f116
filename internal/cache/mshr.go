package cache

import (
	"sort"

	"cmpsim/internal/obsv"
)

// MSHRFile models the miss-status holding registers of a non-blocking
// cache (Kroft-style). Each entry tracks one outstanding line miss, the
// cycle at which its fill completes, and an opaque caller tag (the
// memory system stores the service level there so that merged secondary
// misses attribute their stall to the right place). Secondary misses to
// the same line merge into the existing entry.
//
// The file is a dense fixed-capacity slice, not a map: it holds at most
// max (4-8) entries but is consulted on every memory reference, so the
// linear scan beats map hashing by a wide margin on the simulator's
// hottest path, and the lazy reap is allocation- and iteration-order-
// free. Slot order is unobservable — every operation is keyed by line
// address, counts, or the sorted retirement list.
type MSHRFile struct {
	max     int
	entries []mshrSlot

	trace obsv.Tracer
	cpu   int8
}

type mshrSlot struct {
	done uint64
	addr uint32
	tag  uint8
}

// NewMSHRFile returns an MSHR file with capacity max (the paper's CPUs
// support four outstanding misses).
func NewMSHRFile(max int) *MSHRFile {
	return &MSHRFile{max: max, entries: make([]mshrSlot, 0, max)}
}

// SetTracer attaches a tracer; allocations, retirements and structural
// refusals then emit events attributed to cpu (-1 for a shared file).
func (m *MSHRFile) SetTracer(tr obsv.Tracer, cpu int) {
	m.trace, m.cpu = tr, int8(cpu)
}

// reap drops entries whose fills have completed by now, swapping the
// last slot into the hole. Dropping them is exact because a file is
// asked at nondecreasing cycles: the cycle loop makes every
// memory-system call in cycle order across the machine (the sanitizer's
// cycle-monotonic rule checks it). Entries are reaped at the next call,
// so retire events can be emitted well after their timestamped
// completion cycle; tracers must tolerate that (sinks sort).
func (m *MSHRFile) reap(now uint64) {
	if m.trace == nil {
		for i := 0; i < len(m.entries); {
			if m.entries[i].done <= now {
				last := len(m.entries) - 1
				m.entries[i] = m.entries[last]
				m.entries = m.entries[:last]
			} else {
				i++
			}
		}
		return
	}
	var retired []retiredEntry // deterministic emission order despite swap-deletes
	for i := 0; i < len(m.entries); {
		if e := m.entries[i]; e.done <= now {
			retired = append(retired, retiredEntry{addr: e.addr, done: e.done})
			last := len(m.entries) - 1
			m.entries[i] = m.entries[last]
			m.entries = m.entries[:last]
		} else {
			i++
		}
	}
	sort.Slice(retired, func(i, j int) bool {
		if retired[i].done != retired[j].done {
			return retired[i].done < retired[j].done
		}
		return retired[i].addr < retired[j].addr
	})
	for _, r := range retired {
		m.trace.Emit(obsv.Event{Cycle: r.done, Addr: r.addr, Kind: obsv.EvMSHRRetire, CPU: m.cpu})
	}
}

type retiredEntry struct {
	addr uint32
	done uint64
}

// Outstanding returns the number of in-flight misses at cycle now.
func (m *MSHRFile) Outstanding(now uint64) int {
	m.reap(now)
	return len(m.entries)
}

// Full reports whether a new (non-merging) miss would be refused at now.
func (m *MSHRFile) Full(now uint64) bool {
	full := m.Outstanding(now) >= m.max
	if full && m.trace != nil {
		m.trace.Emit(obsv.Event{Cycle: now, Kind: obsv.EvMSHRFull, CPU: m.cpu})
	}
	return full
}

// NextFree returns the cycle the earliest outstanding fill completes:
// the first cycle at which a file that Full(now) just found full has a
// free entry (never, for a file of capacity zero).
func (m *MSHRFile) NextFree() uint64 {
	free := ^uint64(0)
	for i := range m.entries {
		if d := m.entries[i].done; d < free {
			free = d
		}
	}
	return free
}

// Lookup reports whether lineAddr has an in-flight miss, and if so when
// it completes and with which caller tag.
func (m *MSHRFile) Lookup(now uint64, lineAddr uint32) (done uint64, tag uint8, merged bool) {
	m.reap(now)
	for i := range m.entries {
		if m.entries[i].addr == lineAddr {
			return m.entries[i].done, m.entries[i].tag, true
		}
	}
	return 0, 0, false
}

// Allocate records a new outstanding miss for lineAddr completing at
// done. It reports false if all MSHRs are busy, in which case the
// requester must stall and retry. A second Allocate for an in-flight
// line merges, keeping the earlier completion.
func (m *MSHRFile) Allocate(now uint64, lineAddr uint32, done uint64, tag uint8) bool {
	m.reap(now)
	for i := range m.entries {
		if m.entries[i].addr == lineAddr {
			if done < m.entries[i].done {
				m.entries[i].done, m.entries[i].tag = done, tag
			}
			return true
		}
	}
	if len(m.entries) >= m.max {
		return false
	}
	m.entries = append(m.entries, mshrSlot{done: done, addr: lineAddr, tag: tag}) // len < max <= cap (NewMSHRFile preallocates), so this never grows the backing array
	if m.trace != nil {
		m.trace.Emit(obsv.Event{
			Cycle: now, Addr: lineAddr, Arg: uint32(done - now),
			Kind: obsv.EvMSHRAlloc, CPU: m.cpu,
		})
	}
	return true
}
