package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// l2 is the paper's largest cache, the 2 MiB direct-mapped shared L2.
var l2 = Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 32, Assoc: 1}

// TestNewAllocatesOnlyThePageTable: the 2 MiB L2 costs its page table,
// not its 64 Ki lines. The least of three tries counts: the count is
// process-wide, and under -race the test runner has been seen to
// allocate 5 KiB inside the window.
func TestNewAllocatesOnlyThePageTable(t *testing.T) {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := New(l2)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		t.Errorf("New(%+v) allocated %d bytes, want at most 4 KiB", l2, least)
	}
}

// TestLineSize pins Line at 8 bytes: a field added to it would regrow
// every tag page.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 8 {
		t.Errorf("Line is %d bytes, want 8", got)
	}
}

// BenchmarkCacheNew is the cost of the largest cache a cell builds.
func BenchmarkCacheNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runtime.KeepAlive(New(l2))
	}
}

// flatCache is the reference the paged store replaced: every line
// allocated up front in one slice, set s at lines[s*assoc:(s+1)*assoc],
// LRU stamps from a 64-bit clock that never wraps, and the invalidation
// markers in a map.
type flatCache struct {
	lines                     []flatLine
	setMask, assoc, lineShift uint32
	clock                     uint64
	invalidated               map[uint32]bool
	stats                     Stats
}

type flatLine struct {
	Tag   uint32
	State State
	lru   uint64
}

func newFlat(cfg Config) *flatCache {
	c := New(cfg) // for the geometry's derived fields
	return &flatCache{
		lines:       make([]flatLine, (c.setMask+1)*c.assoc),
		setMask:     c.setMask,
		assoc:       c.assoc,
		lineShift:   c.lineShift,
		invalidated: map[uint32]bool{},
	}
}

func (c *flatCache) set(tag uint32) []flatLine {
	s := tag & c.setMask
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

func (c *flatCache) probe(addr uint32) *flatLine {
	tag := addr >> c.lineShift
	set := c.set(tag)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (c *flatCache) access(addr uint32, write bool) AccessResult {
	ln := c.probe(addr)
	c.clock++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if ln != nil {
		ln.lru = c.clock
		return AccessResult{Hit: true, State: ln.State}
	}
	inv := c.invalidated[addr>>c.lineShift]
	delete(c.invalidated, addr>>c.lineShift)
	if inv {
		c.stats.InvMisses++
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return AccessResult{InvMiss: inv}
}

func (c *flatCache) fill(addr uint32, state State) Victim {
	c.clock++
	tag := addr >> c.lineShift
	set := c.set(tag)
	victimIdx := 0
	var oldest uint64 = ^uint64(0)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == tag {
			set[i].State = state
			set[i].lru = c.clock
			return Victim{}
		}
		if set[i].State == Invalid {
			victimIdx = i
			oldest = 0
		} else if set[i].lru < oldest {
			victimIdx = i
			oldest = set[i].lru
		}
	}
	v := Victim{}
	if old := set[victimIdx]; old.State != Invalid {
		v = Victim{LineAddr: old.Tag << c.lineShift, Dirty: old.State == Modified, Valid: true}
		if v.Dirty {
			c.stats.Writebacks++
		}
	}
	set[victimIdx] = flatLine{Tag: tag, State: state, lru: c.clock}
	return v
}

// remove takes addr's line out as Invalidate (coherence true) or
// EvictForInclusion does, or moves it to to as Downgrade does.
func (c *flatCache) remove(addr uint32, to State, coherence bool) (present, dirty bool) {
	ln := c.probe(addr)
	if ln == nil {
		return false, false
	}
	dirty = ln.State == Modified
	ln.State = to
	if coherence {
		c.stats.Invalidates++
		c.invalidated[addr>>c.lineShift] = true
	}
	return true, dirty
}

func (c *flatCache) countValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			n++
		}
	}
	return n
}

// TestCacheMatchesFlatReference drives the paged cache and the flat
// reference with the same random stream of every operation that reads
// or writes lines, over geometries whose pages hold many sets, one set,
// or all of a cache smaller than a page. Every return value, Stats and
// CountValid must agree; a page must be allocated exactly when a Fill
// reached one of its sets; and the zero pages must still be all zero at
// the end. Each geometry runs twice: from a fresh clock, and from one
// that passes maxStamp mid-stream, so the cache renumbers its stamps
// while the reference's 64-bit clock runs on.
func TestCacheMatchesFlatReference(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "l1-16k-2way", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2},
		l2,
		{Name: "64k-2way-4banks", SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2, Banks: 4},
		{Name: "below-a-page", SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2},
		{Name: "3way", SizeBytes: 3 * 64 << 10, LineBytes: 64, Assoc: 3},
		{Name: "384way", SizeBytes: 384 * 32 * 4, LineBytes: 32, Assoc: 384},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Run("fresh", func(t *testing.T) { matchFlat(t, cfg, 0) })
			// About half of the 20 000 operations tick the clock.
			t.Run("wrapping", func(t *testing.T) { matchFlat(t, cfg, maxStamp-5000) })
		})
	}
	if zeroLines != [pageLines]Line{} {
		t.Error("the shared zero page was written")
	}
}

// matchFlat is one run of TestCacheMatchesFlatReference, with both
// clocks starting at clock.
func matchFlat(t *testing.T, cfg Config, clock uint32) {
	c, ref := New(cfg), newFlat(cfg)
	c.StartClockAt(clock)
	ref.clock = uint64(clock)
	filled := make([]bool, len(c.pages))
	rng := rand.New(rand.NewSource(int64(cfg.SizeBytes) + int64(cfg.Assoc)))
	// hot holds a few sets (the first, the last, and random ones)
	// that the stream fills past their associativity.
	numSets := c.setMask + 1
	hot := []uint32{0, c.setMask}
	for i := 0; i < 6; i++ {
		hot = append(hot, uint32(rng.Intn(int(numSets))))
	}
	addr := func() uint32 {
		if rng.Intn(4) == 0 {
			return rng.Uint32()
		}
		tag := uint32(rng.Intn(int(c.assoc+c.assoc/2+2)))*numSets + hot[rng.Intn(len(hot))]
		return tag<<c.lineShift | uint32(rng.Intn(1<<c.lineShift))
	}
	for op := 0; op < 20000; op++ {
		a := addr()
		switch k := rng.Intn(8); k {
		case 0:
			// The stamps agree until the cache renumbers; after
			// that only their order within a set does, which
			// every Fill's victim checks.
			got, want := c.Probe(a), ref.probe(a)
			if (got == nil) != (want == nil) || got != nil && (got.Tag != want.Tag || got.State != want.State ||
				uint64(c.clock) == ref.clock && uint64(got.stamp()) != want.lru) {
				t.Fatalf("op %d: Probe(%#x) = %v, reference %v", op, a, got, want)
			}
		case 1, 2:
			write := rng.Intn(2) == 0
			var got AccessResult
			if k == 1 {
				got = c.Access(a, write)
			} else {
				got = c.AccessProbed(c.Probe(a), a, write)
			}
			if want := ref.access(a, write); got != want {
				t.Fatalf("op %d: access(%#x, %v) = %+v, reference %+v", op, a, write, got, want)
			}
		case 3, 4:
			st := Shared + State(rng.Intn(3))
			if got, want := c.Fill(a, st), ref.fill(a, st); got != want {
				t.Fatalf("op %d: Fill(%#x, %v) = %+v, reference %+v", op, a, st, got, want)
			}
			filled[(a>>c.lineShift&c.setMask)>>c.pageShift] = true
		default:
			var p, d bool
			var wp, wd bool
			switch k {
			case 5:
				p, d = c.Invalidate(a)
				wp, wd = ref.remove(a, Invalid, true)
			case 6:
				p, d = c.EvictForInclusion(a)
				wp, wd = ref.remove(a, Invalid, false)
			case 7:
				p, d = c.Downgrade(a)
				wp, wd = ref.remove(a, Shared, false)
			}
			if p != wp || d != wd {
				t.Fatalf("op %d: kind %d at %#x = (%v, %v), reference (%v, %v)", op, k, a, p, d, wp, wd)
			}
		}
		if got, want := c.Stats(), ref.stats; got != want {
			t.Fatalf("op %d: Stats = %+v, reference %+v", op, got, want)
		}
		if op%500 == 0 {
			if got, want := c.CountValid(), ref.countValid(); got != want {
				t.Fatalf("op %d: CountValid = %d, reference %d", op, got, want)
			}
		}
	}
	if clock != 0 && c.clock >= clock {
		t.Fatalf("clock %d never passed maxStamp", c.clock)
	}
	if got, want := c.CountValid(), ref.countValid(); got != want || want == 0 {
		t.Fatalf("CountValid = %d, reference %d (want it above 0)", got, want)
	}
	for i, p := range c.pages {
		if (p != c.zero) != filled[i] {
			t.Errorf("page %d allocated %v, filled %v", i, p != c.zero, filled[i])
		}
	}
	for i, ln := range *c.zero {
		if ln != (Line{}) {
			t.Fatalf("zero page line %d written: %+v", i, ln)
		}
	}
}
