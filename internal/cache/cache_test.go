package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 32B lines = 256 bytes.
	return New(Config{Name: "t", SizeBytes: 256, LineBytes: 32, Assoc: 2, Banks: 4})
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{Name: "line", SizeBytes: 256, LineBytes: 24, Assoc: 2},
		{Name: "assoc", SizeBytes: 256, LineBytes: 32, Assoc: 0},
		{Name: "banks", SizeBytes: 256, LineBytes: 32, Assoc: 2, Banks: 3},
		{Name: "size", SizeBytes: 100, LineBytes: 32, Assoc: 2},
		// line*assoc is 1<<32: a 32-bit product wraps to 0.
		{Name: "wrap", SizeBytes: 2 << 20, LineBytes: 32, Assoc: 1 << 27},
	}
	for _, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", cfg.Name, cfg)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Errorf("%s: New panicked with %v, want Validate's %q", cfg.Name, r, err)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHitAfterFill(t *testing.T) {
	c := small()
	if r := c.Access(0x100, false); r.Hit {
		t.Fatal("cold access hit")
	}
	c.Fill(0x100, Exclusive)
	if r := c.Access(0x100, false); !r.Hit || r.State != Exclusive {
		t.Fatalf("expected E hit, got %+v", r)
	}
	// Same line, different word.
	if r := c.Access(0x11c, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	// Different line.
	if r := c.Access(0x120, false); r.Hit {
		t.Fatal("different line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to the same set (set stride = 4 sets * 32B = 128B).
	a, b2, d := uint32(0x000), uint32(0x080), uint32(0x100)
	c.Access(a, false)
	c.Fill(a, Exclusive)
	c.Access(b2, false)
	c.Fill(b2, Exclusive)
	c.Access(a, false) // touch a so b2 is LRU
	c.Access(d, false)
	v := c.Fill(d, Exclusive)
	if !v.Valid || v.LineAddr != b2 {
		t.Fatalf("victim = %+v, want line %#x", v, b2)
	}
	if c.Probe(a) == nil || c.Probe(d) == nil || c.Probe(b2) != nil {
		t.Fatal("wrong lines resident after eviction")
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	c := small()
	c.Fill(0x000, Modified)
	c.Fill(0x080, Exclusive)
	v := c.Fill(0x100, Exclusive) // evicts 0x000 (LRU, dirty)
	if !v.Valid || !v.Dirty || v.LineAddr != 0 {
		t.Fatalf("victim = %+v", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestInvalidationMissClassification(t *testing.T) {
	c := small()
	c.Access(0x40, false)
	c.Fill(0x40, Shared)
	c.Invalidate(0x40)
	r := c.Access(0x40, false)
	if r.Hit || !r.InvMiss {
		t.Fatalf("expected invalidation miss, got %+v", r)
	}
	c.Fill(0x40, Shared)
	// A second miss after a plain eviction is a replacement miss.
	c.EvictForInclusion(0x40)
	r = c.Access(0x40, false)
	if r.Hit || r.InvMiss {
		t.Fatalf("expected replacement miss, got %+v", r)
	}
	s := c.Stats()
	if s.InvMisses != 1 || s.Misses() != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInvalidateReportsDirty(t *testing.T) {
	c := small()
	c.Fill(0x40, Modified)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Fatalf("present=%v dirty=%v", present, dirty)
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestDowngrade(t *testing.T) {
	c := small()
	c.Fill(0x40, Modified)
	present, wasDirty := c.Downgrade(0x40)
	if !present || !wasDirty {
		t.Fatalf("present=%v wasDirty=%v", present, wasDirty)
	}
	if ln := c.Probe(0x40); ln == nil || ln.State != Shared {
		t.Fatal("line not Shared after downgrade")
	}
}

func TestBankInterleaving(t *testing.T) {
	c := small() // 4 banks, 32B lines
	if c.BankOf(0x00) != 0 || c.BankOf(0x20) != 1 || c.BankOf(0x40) != 2 || c.BankOf(0x60) != 3 || c.BankOf(0x80) != 0 {
		t.Error("bank interleaving wrong")
	}
	// Offsets within a line map to the same bank.
	if c.BankOf(0x23) != c.BankOf(0x20) {
		t.Error("within-line offsets changed bank")
	}
}

func TestStatsRates(t *testing.T) {
	c := small()
	c.Access(0x00, false) // miss
	c.Fill(0x00, Exclusive)
	c.Access(0x00, false) // hit
	c.Access(0x00, true)  // hit
	c.Access(0x20, true)  // miss
	s := c.Stats()
	if s.Accesses() != 4 || s.Misses() != 2 || s.ReadMisses != 1 || s.WriteMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MissRate() != 0.5 || s.ReplRate() != 0.5 || s.InvRate() != 0 {
		t.Errorf("rates = %v %v %v", s.MissRate(), s.ReplRate(), s.InvRate())
	}
}

// Property: the cache never holds more lines than its capacity, and a
// line just filled is always resident.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "q", SizeBytes: 512, LineBytes: 32, Assoc: 4, Banks: 2})
		capacity := int(512 / 32)
		for i := 0; i < 300; i++ {
			addr := uint32(r.Intn(1<<14)) &^ 3
			res := c.Access(addr, r.Intn(2) == 0)
			if !res.Hit {
				c.Fill(addr, Exclusive)
			}
			if c.Probe(addr) == nil {
				return false
			}
			if c.CountValid() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: miss classification is consistent — InvMisses never exceeds
// Invalidates, and total misses equals repl + inv misses.
func TestQuickMissClassificationConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "q", SizeBytes: 256, LineBytes: 32, Assoc: 2})
		for i := 0; i < 500; i++ {
			addr := uint32(r.Intn(1 << 11))
			switch r.Intn(3) {
			case 0, 1:
				if res := c.Access(addr, false); !res.Hit {
					c.Fill(addr, Exclusive)
				}
			case 2:
				c.Invalidate(addr)
			}
		}
		s := c.Stats()
		return s.InvMisses <= s.Invalidates && s.Misses() == s.ReplMisses()+s.InvMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMSHRMergeAndLimit(t *testing.T) {
	m := NewMSHRFile(2)
	if !m.Allocate(0, 0x100, 50, 1) {
		t.Fatal("first allocate failed")
	}
	if !m.Allocate(0, 0x200, 60, 2) {
		t.Fatal("second allocate failed")
	}
	if !m.Full(0) {
		t.Fatal("file should be full")
	}
	// Full: a third distinct line must be refused.
	if m.Allocate(0, 0x300, 70, 3) {
		t.Fatal("third allocate should fail")
	}
	// Same line merges even when full.
	if !m.Allocate(0, 0x100, 55, 1) {
		t.Fatal("merge refused")
	}
	if done, tag, ok := m.Lookup(0, 0x100); !ok || done != 50 || tag != 1 {
		t.Fatalf("merged entry done=%d tag=%d ok=%v, want 50/1", done, tag, ok)
	}
	if m.Outstanding(0) != 2 {
		t.Fatalf("outstanding = %d", m.Outstanding(0))
	}
	// After completion cycles pass, entries are reaped.
	if m.Outstanding(55) != 1 {
		t.Fatalf("outstanding at 55 = %d", m.Outstanding(55))
	}
	if !m.Allocate(61, 0x300, 99, 0) {
		t.Fatal("allocate after reap failed")
	}
}

func TestMSHRMergeKeepsEarlierCompletion(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(0, 0x100, 80, 2)
	m.Allocate(0, 0x100, 40, 1) // earlier completion wins
	if done, tag, _ := m.Lookup(0, 0x100); done != 40 || tag != 1 {
		t.Fatalf("done = %d tag = %d, want 40/1", done, tag)
	}
}

func TestMSHRNextFree(t *testing.T) {
	for _, tc := range []struct {
		done []uint64
		want uint64
	}{
		{nil, ^uint64(0)},
		{[]uint64{50}, 50},
		{[]uint64{80, 50, 65}, 50},
		{[]uint64{50, 50}, 50},
	} {
		m := NewMSHRFile(len(tc.done))
		for i, d := range tc.done {
			m.Allocate(0, uint32(0x100*(i+1)), d, 0)
		}
		if got := m.NextFree(); got != tc.want {
			t.Errorf("NextFree with fills due at %v = %d, want %d", tc.done, got, tc.want)
		}
		if tc.done != nil && (!m.Full(tc.want-1) || m.Full(tc.want)) {
			t.Errorf("fills due at %v: Full must flip at NextFree %d", tc.done, tc.want)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Writes: 2, ReadMisses: 3, WriteMisses: 4, InvMisses: 5, Invalidates: 6, Writebacks: 7}
	b := a
	a.Add(b)
	if a.Reads != 2 || a.Writes != 4 || a.ReadMisses != 6 || a.WriteMisses != 8 ||
		a.InvMisses != 10 || a.Invalidates != 12 || a.Writebacks != 14 {
		t.Errorf("Add result = %+v", a)
	}
}

// markerOp is one step of a marker-set test stream.
type markerOp struct {
	kind byte // 'a' load, 'w' store, 'f' fill, 'i' invalidate, 'e' evict for inclusion
	addr uint32
}

// checkMarkers runs ops on c beside the reference the marker set
// replaced, a Go map of invalidated line addresses: set by Invalidate
// on a present line, consumed by the next counted miss on that line and
// by nothing else. Every AccessResult.InvMiss and the final Stats must
// agree with it.
func checkMarkers(t *testing.T, c *Cache, ops []markerOp) {
	t.Helper()
	ref := map[uint32]struct{}{}
	var want Stats
	for i, op := range ops {
		la := c.LineAddr(op.addr)
		present := c.Probe(op.addr) != nil
		switch op.kind {
		case 'a', 'w':
			write := op.kind == 'w'
			if write {
				want.Writes++
			} else {
				want.Reads++
			}
			_, wantInv := ref[la]
			if present {
				wantInv = false
			} else {
				delete(ref, la)
				if write {
					want.WriteMisses++
				} else {
					want.ReadMisses++
				}
				if wantInv {
					want.InvMisses++
				}
			}
			if r := c.Access(op.addr, write); r.Hit != present || r.InvMiss != wantInv {
				t.Fatalf("op %d %c %#x: got %+v, want Hit %v InvMiss %v", i, op.kind, op.addr, r, present, wantInv)
			}
		case 'f':
			if c.Fill(op.addr, Modified).Dirty {
				want.Writebacks++
			}
		case 'i':
			c.Invalidate(op.addr)
			if present {
				ref[la] = struct{}{}
				want.Invalidates++
			}
		case 'e':
			c.EvictForInclusion(op.addr)
		}
	}
	if got := c.Stats(); got != want {
		t.Errorf("stats = %+v, reference says %+v", got, want)
	}
}

func TestInvalidationMarkerSet(t *testing.T) {
	const top = 0xffff_ffe0 // last line of the 32-bit range
	// A random stream over two sets' worth of conflicting lines at the
	// bottom, in the middle and at the top of the address range.
	random := func(seed int64) []markerOp {
		r := rand.New(rand.NewSource(seed))
		ops := make([]markerOp, 4000)
		for i := range ops {
			addr := uint32(r.Intn(1 << 10))
			switch r.Intn(3) {
			case 1:
				addr += 0x0123_4000
			case 2:
				addr = top - addr
			}
			ops[i] = markerOp{"awfffiie"[r.Intn(8)], addr}
		}
		return ops
	}
	for _, tc := range []struct {
		name  string
		assoc uint32
		ops   []markerOp
	}{
		// x is invalidated, y and z (same set) refill both ways, and the
		// next miss on x is still the invalidation's.
		{"refilled-way", 2, []markerOp{
			{'a', 0x000}, {'f', 0x000}, {'i', 0x000},
			{'a', 0x080}, {'f', 0x080}, {'a', 0x100}, {'f', 0x100},
			{'a', 0x000},
			{'f', 0x000}, {'e', 0x000}, {'a', 0x000}, // consumed: now a replacement miss
		}},
		// An uncounted refill keeps the marker for the miss after it.
		{"refilled-line", 2, []markerOp{
			{'f', 0x040}, {'i', 0x040}, {'f', 0x040}, {'e', 0x040}, {'w', 0x040}, {'a', 0x040},
		}},
		{"range-ends", 1, []markerOp{
			{'f', 0}, {'i', 0}, {'f', top}, {'i', top + 0x1c},
			{'a', 0x20}, {'a', top - 0x20}, // the neighbours are unmarked
			{'a', top}, {'a', 0x1c}, {'a', top}, {'a', 0},
		}},
		{"random-1", 2, random(1)},
		{"random-2", 1, random(2)},
		{"random-3", 4, random(3)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkMarkers(t, New(Config{Name: "t", SizeBytes: 128 * tc.assoc, LineBytes: 32, Assoc: tc.assoc}), tc.ops)
		})
	}
}

// BenchmarkCacheInvalidateMiss is the coherence ping-pong as one private
// cache sees it: every line is missed (an invalidation miss), filled
// and invalidated again, over 64 Ki lines (2 MiB, two marker pages).
// The marker set allocates its pages during the warm-up pass and
// nothing after: 0 allocs/op.
func BenchmarkCacheInvalidateMiss(b *testing.B) {
	c := New(Config{Name: "l1d", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2})
	const lines = 64 << 10
	pingPong := func(line uint32) {
		addr := line % lines * 32
		c.Access(addr, false)
		c.Fill(addr, Shared)
		c.Invalidate(addr)
	}
	for i := uint32(0); i < lines; i++ {
		pingPong(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pingPong(uint32(i))
	}
	if s := c.Stats(); s.InvMisses+lines != s.Misses() {
		b.Fatalf("every miss after the first pass must be an invalidation miss: %+v", s)
	}
}
