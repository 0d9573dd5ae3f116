// Package coherence implements the two cache-coherence mechanisms of the
// paper's architectures: a MESI bus-snooping protocol for the
// shared-memory multiprocessor (private L1 + private L2 per CPU), and a
// write-through invalidate directory for the shared-L2 multiprocessor
// (one directory entry per shared-L2 line, Section 2.3).
//
// Coherence decides every state, memsys charges time. For MESI, Local
// is the requester's side (the states its own L1 and L2 take and the
// bus transaction it needs) and Snoop the remote side (what every other
// node's copies become); the memory-system compositions (package
// memsys) only turn the transaction and what it found (remote copy,
// invalidations sent, ...) into cycles.
package coherence

import (
	"cmpsim/internal/cache"
	"cmpsim/internal/obsv"
	"cmpsim/internal/prof"
)

// Bus is the bus transaction an access needs from the snooping domain.
type Bus uint8

const (
	BusNone Bus = iota // served by the requester's own hierarchy
	BusRd              // read miss: remote E/M copies downgrade to Shared
	BusRdX             // write miss: remote copies are invalidated
	BusUpgr            // write to a Shared copy: remote copies are invalidated, no data moves
)

// Local is the requester's side of MESI: given the state of the line in
// the requesting CPU's L1 and L2 (Invalid where absent) and whether the
// access writes, it returns the states the two copies take and the bus
// transaction the access needs. Whether a miss to the line is still
// outstanding is not an input: an access that merges into one takes the
// same transition.
//
// An L1 hit does not look at the L2 (the read-hit path must not probe
// it), so the caller passes Invalid for it there, and nl2 then stays
// Invalid unless the L2 copy must change. A BusRd fills Exclusive;
// SnoopResult.Fill turns that into Shared when a remote copy answers.
// The L2 stays inclusive of the L1, so an L1 copy is never over an
// invalid L2 one.
func Local(l1, l2 cache.State, write bool) (nl1, nl2 cache.State, bus Bus) {
	if l1 != cache.Invalid { // L1 hit
		switch {
		case !write:
			return l1, l2, BusNone
		case l1 == cache.Shared:
			return cache.Modified, cache.Modified, BusUpgr
		}
		return cache.Modified, l2, BusNone // E or M: silent
	}
	switch { // L1 miss
	case l2 == cache.Invalid && write:
		return cache.Modified, cache.Modified, BusRdX
	case l2 == cache.Invalid:
		return cache.Exclusive, cache.Exclusive, BusRd
	case write && l2 == cache.Shared:
		return cache.Modified, cache.Modified, BusUpgr
	case write:
		return cache.Modified, cache.Modified, BusNone
	case l2 == cache.Shared:
		return cache.Shared, cache.Shared, BusNone
	}
	return cache.Exclusive, l2, BusNone // E or M in L2: the L1 may upgrade silently
}

// Node is one CPU's private cache hierarchy in the snoopy system.
type Node struct {
	L1 *cache.Cache
	L2 *cache.Cache
}

// SnoopStats counts protocol events.
type SnoopStats struct {
	ReadMissesSnooped  uint64
	WriteMissesSnooped uint64
	Upgrades           uint64
	InvalidationsSent  uint64
	CacheToCache       uint64 // transactions supplied by a remote cache
}

// Snoop is a MESI bus-snooping protocol over a set of nodes. L2 is
// inclusive of L1: any coherence action on L2 is mirrored into L1.
type Snoop struct {
	nodes []Node
	stats SnoopStats
	trace obsv.Tracer
	prof  *prof.Profiler
}

// NewSnoop builds a snooping domain over the given nodes.
func NewSnoop(nodes []Node) *Snoop {
	return &Snoop{nodes: nodes}
}

// Stats returns a copy of the protocol counters.
func (s *Snoop) Stats() SnoopStats { return s.stats }

// SetTracer attaches a tracer; protocol transactions then emit
// invalidation, upgrade and cache-to-cache events.
func (s *Snoop) SetTracer(tr obsv.Tracer) { s.trace = tr }

// SetProfiler attaches a line-sharing profiler; invalidations and
// cache-to-cache transfers are then recorded per line with the
// writer→reader CPU pair that caused them.
func (s *Snoop) SetProfiler(p *prof.Profiler) { s.prof = p }

// SnoopResult reports what a bus transaction found in remote caches.
type SnoopResult struct {
	RemoteDirty bool // a remote cache held the line Modified (it supplies the data)
	RemoteCopy  bool // at least one remote cache held the line in any state
	Invalidated int  // remote lines invalidated by this transaction

	dirtyNode int // node that held the line Modified, -1 if none (profiling)
}

// Fill is the state a requester's copy takes after the transaction
// that found r, when Local gave it st: a BusRd answered by a remote copy
// fills Shared, not Exclusive.
func (r SnoopResult) Fill(st cache.State) cache.State {
	if r.RemoteCopy && st == cache.Exclusive {
		return cache.Shared
	}
	return st
}

// Do issues bus transaction b for cpu's line at cycle now (BusNone
// does nothing).
func (s *Snoop) Do(now uint64, cpu int, addr uint32, b Bus) SnoopResult {
	switch b {
	case BusRd:
		return s.Read(now, cpu, addr)
	case BusRdX:
		return s.Write(now, cpu, addr)
	case BusUpgr:
		return s.Upgrade(now, cpu, addr)
	}
	return SnoopResult{dirtyNode: -1}
}

// Read handles a BusRd issued by cpu at cycle now after missing in its
// own hierarchy. Remote Modified/Exclusive copies are downgraded to
// Shared, and the requester fills Shared if RemoteCopy (Fill).
func (s *Snoop) Read(now uint64, cpu int, addr uint32) SnoopResult {
	s.stats.ReadMissesSnooped++
	r := SnoopResult{dirtyNode: -1}
	supplier := -1 // dirty owner if any, else the first node with a copy
	for i, n := range s.nodes {
		if i == cpu {
			continue
		}
		for _, c := range [...]*cache.Cache{n.L2, n.L1} {
			present, wasDirty := c.Downgrade(addr)
			if !present {
				continue
			}
			r.RemoteCopy = true
			if supplier < 0 || wasDirty {
				supplier = i
			}
			if wasDirty {
				r.RemoteDirty, r.dirtyNode = true, i
			}
		}
	}
	if r.RemoteCopy {
		s.c2c(now, cpu, supplier, addr)
	}
	return r
}

// Write handles a BusRdX issued by cpu (write miss) — remote copies are
// invalidated; a remote Modified copy supplies the data cache-to-cache.
func (s *Snoop) Write(now uint64, cpu int, addr uint32) SnoopResult {
	s.stats.WriteMissesSnooped++
	r := s.invalidateRemote(now, cpu, addr)
	if r.RemoteDirty {
		s.c2c(now, cpu, r.dirtyNode, addr)
	}
	return r
}

// c2c counts a transaction of cpu's that node from supplied
// cache-to-cache.
func (s *Snoop) c2c(now uint64, cpu, from int, addr uint32) {
	s.stats.CacheToCache++
	if s.trace != nil {
		s.trace.Emit(obsv.Event{Cycle: now, Addr: addr, Kind: obsv.EvC2C, CPU: int8(cpu)})
	}
	if s.prof != nil {
		s.prof.LineC2C(from, cpu, addr)
	}
}

// Upgrade handles a BusUpgr issued by cpu, which holds the line Shared
// and wants to write it. Remote Shared copies are invalidated; no data
// transfer is needed.
func (s *Snoop) Upgrade(now uint64, cpu int, addr uint32) SnoopResult {
	s.stats.Upgrades++
	r := s.invalidateRemote(now, cpu, addr)
	if s.trace != nil {
		s.trace.Emit(obsv.Event{Cycle: now, Addr: addr, Arg: uint32(r.Invalidated), Kind: obsv.EvUpgrade, CPU: int8(cpu)})
	}
	return r
}

func (s *Snoop) invalidateRemote(now uint64, cpu int, addr uint32) SnoopResult {
	r := SnoopResult{dirtyNode: -1}
	for i, n := range s.nodes {
		if i == cpu {
			continue
		}
		nodeHit := false
		for _, c := range [...]*cache.Cache{n.L2, n.L1} {
			present, dirty := c.Invalidate(addr)
			if !present {
				continue
			}
			r.RemoteCopy = true
			r.Invalidated++
			nodeHit = true
			if dirty {
				r.RemoteDirty, r.dirtyNode = true, i
			}
		}
		if nodeHit && s.prof != nil {
			s.prof.LineInval(cpu, i, addr)
		}
	}
	s.stats.InvalidationsSent += uint64(r.Invalidated)
	if r.Invalidated > 0 && s.trace != nil {
		s.trace.Emit(obsv.Event{Cycle: now, Addr: addr, Arg: uint32(r.Invalidated), Kind: obsv.EvInval, CPU: int8(cpu)})
	}
	return r
}

// --- Write-through invalidate directory (shared-L2 architecture) ---

// DirStats counts directory events.
type DirStats struct {
	Invalidations   uint64 // L1 lines invalidated by remote writes
	InclusionEvicts uint64 // L1 lines removed because L2 evicted the line
}

// Directory tracks, for each shared-L2 line, which CPUs' write-through
// L1 caches hold a copy. On a write by one CPU all other sharers are
// invalidated (Section 2.3: "When there is a change to a cache line
// caused by a write or a replacement all processors caching the line
// must receive invalidates").
type Directory struct {
	l1s     []*cache.Cache
	sharers map[uint32]uint16 // line address -> CPU bitmask
	stats   DirStats
	trace   obsv.Tracer
	prof    *prof.Profiler
}

// NewDirectory builds a directory over the write-through L1 caches.
func NewDirectory(l1s []*cache.Cache) *Directory {
	return &Directory{l1s: l1s, sharers: make(map[uint32]uint16)}
}

// Stats returns a copy of the directory counters.
func (d *Directory) Stats() DirStats { return d.stats }

// SetTracer attaches a tracer; invalidations and inclusion evictions
// then emit events.
func (d *Directory) SetTracer(tr obsv.Tracer) { d.trace = tr }

// SetProfiler attaches a line-sharing profiler; write-through
// invalidations are then recorded per line with the writer→reader CPU
// pair. Inclusion evictions are not recorded — they are a capacity
// effect, not sharing.
func (d *Directory) SetProfiler(p *prof.Profiler) { d.prof = p }

// Sharers returns the current sharer bitmask of a line.
func (d *Directory) Sharers(lineAddr uint32) uint16 { return d.sharers[lineAddr] }

// AddSharer records that cpu's L1 now holds lineAddr.
func (d *Directory) AddSharer(lineAddr uint32, cpu int) {
	d.sharers[lineAddr] |= 1 << uint(cpu)
}

// DropSharer records that cpu's L1 no longer holds lineAddr (the L1
// replaced it on its own).
func (d *Directory) DropSharer(lineAddr uint32, cpu int) {
	if m, ok := d.sharers[lineAddr]; ok {
		m &^= 1 << uint(cpu)
		if m == 0 {
			delete(d.sharers, lineAddr)
		} else {
			d.sharers[lineAddr] = m
		}
	}
}

// Write handles a write-through by cpu to lineAddr: every other sharer's
// L1 copy is invalidated (counted as a coherence invalidation, so later
// misses on the line classify as invalidation misses). Returns the
// number of L1 invalidations performed.
func (d *Directory) Write(now uint64, lineAddr uint32, cpu int) int {
	m := d.sharers[lineAddr]
	inv := 0
	for i := range d.l1s {
		if i == cpu || m&(1<<uint(i)) == 0 {
			continue
		}
		if present, _ := d.l1s[i].Invalidate(lineAddr); present {
			inv++
			if d.prof != nil {
				d.prof.LineInval(cpu, i, lineAddr)
			}
		}
	}
	// Only the writer (if it held the line) remains a sharer.
	if m&(1<<uint(cpu)) != 0 {
		d.sharers[lineAddr] = 1 << uint(cpu)
	} else {
		delete(d.sharers, lineAddr)
	}
	d.stats.Invalidations += uint64(inv)
	if inv > 0 && d.trace != nil {
		d.trace.Emit(obsv.Event{Cycle: now, Addr: lineAddr, Arg: uint32(inv), Kind: obsv.EvInval, CPU: int8(cpu)})
	}
	return inv
}

// L2Evict handles the shared L2 replacing lineAddr: inclusion forces all
// L1 copies out. These removals are *not* classified as coherence
// invalidations (they are a capacity/conflict effect of the L2).
func (d *Directory) L2Evict(now uint64, lineAddr uint32) int {
	m, ok := d.sharers[lineAddr]
	if !ok {
		return 0
	}
	n := 0
	for i := range d.l1s {
		if m&(1<<uint(i)) == 0 {
			continue
		}
		if present, _ := d.l1s[i].EvictForInclusion(lineAddr); present {
			n++
		}
	}
	delete(d.sharers, lineAddr)
	d.stats.InclusionEvicts += uint64(n)
	if n > 0 && d.trace != nil {
		d.trace.Emit(obsv.Event{Cycle: now, Addr: lineAddr, Arg: uint32(n), Kind: obsv.EvInclEvict, CPU: -1})
	}
	return n
}
