// Package cache models set-associative caches with LRU replacement,
// MESI-compatible per-line state, bank interleaving, and the
// replacement-vs-invalidation miss classification used throughout the
// paper's Section 4 (L1R/L1I and L2R/L2I miss-rate components).
//
// Caches here hold only tags and state; data lives in the functional
// memory image (package mem). Timing — latencies, occupancies, bank and
// bus contention — belongs to the memory-system compositions (package
// memsys), which drive these caches.
package cache

import (
	"fmt"
	"math/bits"

	"cmpsim/internal/cyc"
)

// State is the MESI state of a cache line. Non-coherent caches use
// Exclusive for clean lines and Modified for dirty lines.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Config describes a cache's geometry.
type Config struct {
	Name      string // for error messages and reports
	SizeBytes uint32
	LineBytes uint32
	Assoc     uint32 // 1 = direct mapped
	Banks     uint32 // power of two; lines are interleaved across banks
}

// Line is one cache line's bookkeeping state, 8 bytes.
type Line struct {
	Tag   uint32 // line address (addr >> lineShift); valid only if State != Invalid
	State State
	lru   [3]byte // 24-bit LRU stamp, little-endian; see Cache.tick
}

// maxStamp is the largest LRU stamp a Line holds.
const maxStamp = 1<<24 - 1

func (ln *Line) stamp() uint32 {
	return uint32(ln.lru[0]) | uint32(ln.lru[1])<<8 | uint32(ln.lru[2])<<16
}

func (ln *Line) setStamp(s uint32) {
	ln.lru = [3]byte{byte(s), byte(s >> 8), byte(s >> 16)}
}

// Stats counts cache events. All counters are cumulative.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	InvMisses   uint64 // misses caused by a prior coherence invalidation
	Invalidates uint64 // lines removed by coherence actions
	Writebacks  uint64 // dirty victims handed back to the caller
}

// Accesses returns total references.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Add accumulates o into s (for aggregating the four private caches of
// an architecture into one report line).
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadMisses += o.ReadMisses
	s.WriteMisses += o.WriteMisses
	s.InvMisses += o.InvMisses
	s.Invalidates += o.Invalidates
	s.Writebacks += o.Writebacks
}

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// ReplMisses returns misses not caused by invalidation (cold, capacity
// and conflict misses).
func (s Stats) ReplMisses() uint64 { return cyc.Sub(s.Misses(), s.InvMisses) }

// MissRate returns misses per reference (the paper's "local miss rate").
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses()) / float64(a)
	}
	return 0
}

// ReplRate returns the replacement-miss component of the local miss rate.
func (s Stats) ReplRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.ReplMisses()) / float64(a)
	}
	return 0
}

// InvRate returns the invalidation-miss component of the local miss rate.
func (s Stats) InvRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.InvMisses) / float64(a)
	}
	return 0
}

// Victim describes a line evicted by Fill.
type Victim struct {
	LineAddr uint32 // byte address of the first byte of the victim line
	Dirty    bool
	Valid    bool
}

// Cache is a set-associative, LRU-replaced cache.
//
// Its lines are held by the page, the way mem.Image holds guest memory:
// a table of pages of whole sets, each allocated by the first Fill into
// one of its sets. A page no Fill has reached is a shared all-Invalid
// page, so a lookup there misses with no presence test, and creating a
// cache costs one pointer per page instead of all its lines. Pages
// never move, so a *Line from Probe stays valid for the cache's
// lifetime.
type Cache struct {
	pages     []*page
	zero      *page  // the all-Invalid page unfilled entries point at
	pageLen   int    // lines in a filled page
	pageShift uint32 // log2 of the sets in one page
	pageMask  uint32 // a set's index within its page
	setMask   uint32
	assoc     uint32
	lineShift uint32
	bankMask  uint32
	clock     uint32 // LRU timestamp source, at most maxStamp

	// invalidated remembers the lines removed by coherence so the next
	// counted miss on them can be classified as an invalidation miss. The
	// marker belongs to the line, not to the way it left: another line
	// refilling that way does not consume it.
	invalidated lineSet

	stats Stats
}

// page holds the lines of 1<<pageShift consecutive sets, set after set.
type page []Line

// pageLines bounds a page of whole sets: 256 lines of 8 bytes, 2 KiB
// (measured against 64 and 1024 in DESIGN §4). A set of more ways than
// this is a page on its own.
const pageLines = 256

// zeroLines backs every unfilled page of every cache whose sets fit in
// pageLines. It is never written: Fill allocates a page before writing
// into it, and every other writer writes only a line Probe found valid.
var (
	zeroLines [pageLines]Line
	zeroPage  = page(zeroLines[:])
)

// Validate reports why New would reject cfg's geometry, or nil. Banks
// of 0 means 1.
func (cfg Config) Validate() error {
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	if cfg.Assoc == 0 {
		return fmt.Errorf("cache %s: associativity must be >= 1", cfg.Name)
	}
	if cfg.Banks&(cfg.Banks-1) != 0 {
		return fmt.Errorf("cache %s: bank count %d not a power of two", cfg.Name, cfg.Banks)
	}
	if uint64(cfg.SizeBytes)%cfg.setBytes() != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", cfg.Name, cfg.SizeBytes)
	}
	if numSets := cfg.sets(); numSets == 0 || numSets&(numSets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, numSets)
	}
	return nil
}

// setBytes is the bytes one set covers, in 64 bits: LineBytes*Assoc can
// pass 32.
func (cfg Config) setBytes() uint64 { return uint64(cfg.LineBytes) * uint64(cfg.Assoc) }

func (cfg Config) sets() uint32 { return uint32(uint64(cfg.SizeBytes) / cfg.setBytes()) }

// New builds a cache from cfg, panicking on invalid geometry (see
// Validate; a caller that takes the geometry from its user validates it
// first). It allocates only the page table.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Banks == 0 {
		cfg.Banks = 1
	}
	numSets := cfg.sets()
	pageShift := uint32(0) // as many sets as fit in pageLines: at least one, at most all
	for uint64(1)<<(pageShift+1) <= uint64(numSets) && uint64(cfg.Assoc)<<(pageShift+1) <= pageLines {
		pageShift++
	}
	c := &Cache{
		pages:     make([]*page, numSets>>pageShift),
		zero:      &zeroPage,
		pageLen:   int(cfg.Assoc << pageShift),
		pageShift: pageShift,
		pageMask:  1<<pageShift - 1,
		setMask:   numSets - 1,
		assoc:     cfg.Assoc,
		lineShift: uint32(bits.TrailingZeros32(cfg.LineBytes)),
		bankMask:  cfg.Banks - 1,
	}
	if c.pageLen > pageLines {
		z := make(page, c.pageLen) // a set wider than the shared zero page
		c.zero = &z
	}
	for i := range c.pages {
		c.pages[i] = c.zero
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr masks addr down to its line base address.
func (c *Cache) LineAddr(addr uint32) uint32 {
	return addr >> c.lineShift << c.lineShift
}

// BankOf returns the bank index servicing addr (line-interleaved).
func (c *Cache) BankOf(addr uint32) uint32 {
	return (addr >> c.lineShift) & c.bankMask
}

// set returns tag's set; a set no Fill has reached is in the zero page.
// It stays small enough for Probe to inline into the memory systems.
func (c *Cache) set(tag uint32) []Line {
	s := tag & c.setMask
	way := (s & c.pageMask) * c.assoc
	return (*c.pages[s>>c.pageShift])[way : way+c.assoc]
}

// Probe returns the line holding addr, or nil on miss. Probe does not
// update LRU state or statistics; it is the snooping/directory interface.
func (c *Cache) Probe(addr uint32) *Line {
	tag := addr >> c.lineShift
	set := c.set(tag)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == tag {
			return &set[i]
		}
	}
	return nil
}

// AccessResult reports what an Access found.
type AccessResult struct {
	Hit     bool
	InvMiss bool  // miss was caused by a previous coherence invalidation
	State   State // state of the line on a hit (before any caller updates)
}

// Access performs a load (write=false) or store (write=true) lookup,
// updating LRU and statistics. On a miss the caller is responsible for
// calling Fill once the line has been fetched; Access itself does not
// allocate, because the fill state depends on the coherence protocol.
func (c *Cache) Access(addr uint32, write bool) AccessResult {
	return c.AccessProbed(c.Probe(addr), addr, write)
}

// AccessProbed is Access for a caller that has already looked: ln must
// be what Probe(addr) returns at this moment. The memory systems probe
// first, because a reference they refuse must not be counted, and hand
// the line over instead of having the set scanned twice.
func (c *Cache) AccessProbed(ln *Line, addr uint32, write bool) AccessResult {
	now := c.tick()
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if ln != nil {
		ln.setStamp(now)
		return AccessResult{Hit: true, State: ln.State}
	}
	inv := c.invalidated.remove(addr >> c.lineShift)
	if inv {
		c.stats.InvMisses++
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return AccessResult{Hit: false, InvMiss: inv}
}

// Fill inserts addr's line in the given state, evicting the LRU way of
// its set if necessary. The victim (if valid) is returned so the caller
// can write it back or invalidate lower/upper levels for inclusion.
func (c *Cache) Fill(addr uint32, state State) Victim {
	if state == Invalid {
		panic("cache: Fill with Invalid state")
	}
	now := c.tick()
	tag := addr >> c.lineShift
	if pg := (tag & c.setMask) >> c.pageShift; c.pages[pg] == c.zero {
		p := make(page, c.pageLen) // the first fill of this page's sets
		c.pages[pg] = &p
	}
	set := c.set(tag)
	// Reuse the matching or an invalid way if present.
	victimIdx := 0
	var oldest uint32 = ^uint32(0)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == tag {
			set[i].State = state
			set[i].setStamp(now)
			return Victim{}
		}
		if set[i].State == Invalid {
			victimIdx = i
			oldest = 0
		} else if st := set[i].stamp(); st < oldest {
			victimIdx = i
			oldest = st
		}
	}
	v := Victim{}
	if set[victimIdx].State != Invalid {
		v = Victim{
			LineAddr: c.victimAddr(set[victimIdx].Tag),
			Dirty:    set[victimIdx].State == Modified,
			Valid:    true,
		}
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	set[victimIdx] = Line{Tag: tag, State: state}
	set[victimIdx].setStamp(now)
	return v
}

// tick advances the LRU clock and returns the new stamp. Before the
// clock would pass maxStamp, renumber rewrites every valid line's stamp
// as its rank in its set, 1 for the least recently used, and the clock
// restarts above the highest rank. Fill only compares the stamps of one
// set's valid ways, so every later victim is the one a 64-bit clock
// would have chosen.
func (c *Cache) tick() uint32 {
	if c.clock == maxStamp {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber ranks the valid ways of every filled set by stamp. It runs
// once per 2^24 accesses and fills, so quadratic in the associativity
// is cheap enough.
func (c *Cache) renumber() {
	rank := make([]uint32, c.assoc)
	for _, p := range c.pages {
		if p == c.zero {
			continue
		}
		for s := 0; s < len(*p); s += int(c.assoc) {
			set := (*p)[s : s+int(c.assoc)]
			for i := range set {
				rank[i] = 1
				for j := range set {
					if set[j].State != Invalid && set[j].stamp() < set[i].stamp() {
						rank[i]++
					}
				}
			}
			for i := range set {
				if set[i].State != Invalid {
					set[i].setStamp(rank[i])
				}
			}
		}
	}
	c.clock = c.assoc
}

func (c *Cache) victimAddr(tag uint32) uint32 {
	return tag << c.lineShift
}

// Invalidate removes addr's line due to a coherence action and remembers
// it for invalidation-miss classification. It reports whether the line
// was present and whether it was dirty (needing a writeback or transfer).
func (c *Cache) Invalidate(addr uint32) (present, dirty bool) {
	ln := c.Probe(addr)
	if ln == nil {
		return false, false
	}
	dirty = ln.State == Modified
	ln.State = Invalid
	c.stats.Invalidates++
	c.invalidated.add(addr >> c.lineShift)
	return true, dirty
}

// EvictForInclusion removes addr's line because a lower (larger) level
// evicted it. Unlike Invalidate, the removal is *not* counted as a
// coherence invalidation for miss classification: a re-miss on the line
// is a replacement (capacity/conflict) miss of the lower level.
func (c *Cache) EvictForInclusion(addr uint32) (present, dirty bool) {
	ln := c.Probe(addr)
	if ln == nil {
		return false, false
	}
	dirty = ln.State == Modified
	ln.State = Invalid
	return true, dirty
}

// Downgrade moves addr's line to Shared (e.g. a remote read snoop hit a
// Modified/Exclusive line). Reports prior dirtiness.
func (c *Cache) Downgrade(addr uint32) (present, wasDirty bool) {
	ln := c.Probe(addr)
	if ln == nil {
		return false, false
	}
	wasDirty = ln.State == Modified
	ln.State = Shared
	return true, wasDirty
}

// CountValid returns the number of valid lines (for tests and reports).
func (c *Cache) CountValid() int {
	n := 0
	for _, p := range c.pages {
		if p == c.zero {
			continue
		}
		for i := range *p {
			if (*p)[i].State != Invalid {
				n++
			}
		}
	}
	return n
}

// lineSet is an exact set of line numbers (addr >> lineShift): a bitmap
// in pages allocated on first use, behind a directory grown to the
// highest page ever marked. With 32-byte lines a page covers 1 MiB of
// guest memory, so a cache allocates one 4 KiB page per MiB it has ever
// had a line invalidated in and nothing after that; add and remove are
// two indexed loads on the snoop and miss paths.
type lineSet struct {
	pages []*linePage
}

const (
	linePageShift = 15 // 32 Ki lines, 4 KiB of bits
	linePageWords = 1 << (linePageShift - 6)
)

type linePage [linePageWords]uint64

func (s *lineSet) add(line uint32) {
	p := int(line >> linePageShift)
	if p >= len(s.pages) {
		grown := make([]*linePage, p+1) // once per new highest page: at most one pointer per MiB of guest memory over a whole run
		copy(grown, s.pages)
		s.pages = grown
	}
	if s.pages[p] == nil {
		s.pages[p] = new(linePage) // first invalidation in this MiB of guest memory; 0 allocs/op at steady state (BenchmarkCacheInvalidateMiss)
	}
	s.pages[p][line>>6&(linePageWords-1)] |= 1 << (line & 63)
}

// remove takes line out of the set and reports whether it was in it.
func (s *lineSet) remove(line uint32) bool {
	p := int(line >> linePageShift)
	if p >= len(s.pages) || s.pages[p] == nil {
		return false
	}
	w, bit := &s.pages[p][line>>6&(linePageWords-1)], uint64(1)<<(line&63)
	was := *w&bit != 0
	*w &^= bit
	return was
}
