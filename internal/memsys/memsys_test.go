package memsys

import (
	"encoding/json"
	"runtime"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/check"
)

// latency returns the load-to-use latency of a fresh access on sys.
func latency(t *testing.T, sys System, now uint64, cpu int, addr uint32, write bool) (uint64, Level) {
	t.Helper()
	r, ok := sys.Access(now, cpu, addr, write)
	if !ok {
		t.Fatalf("%s: access refused", sys.Name())
	}
	return r.Done - now, r.Level
}

// --- Table 2: contention-free access latencies ---

func TestTable2SharedL1Latencies(t *testing.T) {
	s := NewSharedL1(DefaultConfig())
	// Cold miss goes to memory: 1 (L1 detect) + 10 (L2 tag) + 50 (memory).
	if lat, lvl := latency(t, s, 0, 0, 0x1000, false); lat != 61 || lvl != LvlMem {
		t.Errorf("memory fill: lat=%d lvl=%v, want 61/Mem", lat, lvl)
	}
	// Now an L1 hit: 1 cycle under the simple-CPU configuration.
	if lat, lvl := latency(t, s, 100, 0, 0x1000, false); lat != 1 || lvl != LvlL1 {
		t.Errorf("L1 hit: lat=%d lvl=%v, want 1/L1", lat, lvl)
	}
	// Evict nothing, hit L2: access another word mapping to a line that is
	// in L2 but not L1. First bring a line in, flush it from L1 by filling
	// conflicting lines... simpler: access line A (fills L1+L2), then a
	// fresh line B, then a line conflicting with A in L1 to evict it, then
	// A again must hit in L2: 1 + 10 = 11 cycles.
	s2 := NewSharedL1(DefaultConfig())
	s2.Access(0, 0, 0x1000, false) // A -> L1+L2
	// Shared L1 is 64KB 2-way -> way stride is 32KB. Two conflicting fills
	// evict A from its set.
	s2.Access(100, 0, 0x1000+32<<10, false)
	s2.Access(200, 0, 0x1000+64<<10, false)
	s2.Access(300, 0, 0x1000+96<<10, false)
	if lat, lvl := latency(t, s2, 1000, 0, 0x1000, false); lat != 11 || lvl != LvlL2 {
		t.Errorf("L2 hit: lat=%d lvl=%v, want 11/L2", lat, lvl)
	}
}

func TestTable2SharedL1MXSHitTime(t *testing.T) {
	s := NewSharedL1(DefaultConfig().MXS())
	s.Access(0, 0, 0x1000, false)
	// 3-cycle hit under the detailed model.
	if lat, _ := latency(t, s, 100, 0, 0x1000, false); lat != 3 {
		t.Errorf("MXS L1 hit: lat=%d, want 3", lat)
	}
}

func TestTable2SharedL2Latencies(t *testing.T) {
	s := NewSharedL2(DefaultConfig())
	// Cold: 1 + 14 + 50 = 65.
	if lat, lvl := latency(t, s, 0, 0, 0x2000, false); lat != 65 || lvl != LvlMem {
		t.Errorf("memory fill: lat=%d lvl=%v, want 65/Mem", lat, lvl)
	}
	// L1 hit: 1 cycle.
	if lat, lvl := latency(t, s, 100, 0, 0x2000, false); lat != 1 || lvl != LvlL1 {
		t.Errorf("L1 hit: lat=%d lvl=%v", lat, lvl)
	}
	// L2 hit from another CPU that doesn't have it in L1: 1 + 14 = 15.
	if lat, lvl := latency(t, s, 200, 1, 0x2000, false); lat != 15 || lvl != LvlL2 {
		t.Errorf("L2 hit: lat=%d lvl=%v, want 15/L2", lat, lvl)
	}
}

func TestTable2SharedMemLatencies(t *testing.T) {
	s := NewSharedMem(DefaultConfig())
	// Cold: 1 + 10 (L2 tags) + 50 = 61.
	if lat, lvl := latency(t, s, 0, 0, 0x3000, false); lat != 61 || lvl != LvlMem {
		t.Errorf("memory fill: lat=%d lvl=%v, want 61/Mem", lat, lvl)
	}
	if lat, lvl := latency(t, s, 100, 0, 0x3000, false); lat != 1 || lvl != LvlL1 {
		t.Errorf("L1 hit: lat=%d lvl=%v", lat, lvl)
	}
	// Another CPU reads the same line: cache-to-cache, 1 + 10 + 55 = 66
	// (Table 2: "> 50", comparable to a memory access).
	if lat, lvl := latency(t, s, 200, 1, 0x3000, false); lat != 66 || lvl != LvlC2C {
		t.Errorf("c2c: lat=%d lvl=%v, want 66/C2C", lat, lvl)
	}
}

// --- Coherence through the full access paths ---

func TestSharedMemWriteInvalidatesRemoteL1(t *testing.T) {
	s := NewSharedMem(DefaultConfig())
	s.Access(0, 0, 0x100, false)   // CPU0: E
	s.Access(100, 1, 0x100, false) // CPU1 reads: both S (c2c)
	// CPU0 writes: upgrade, invalidating CPU1. The store itself retires
	// into the write buffer in one cycle.
	r, ok := s.Access(200, 0, 0x100, true)
	if !ok || r.Done != 201 {
		t.Fatalf("upgrade result %+v ok=%v", r, ok)
	}
	// CPU1's next read misses with invalidation classification and is
	// supplied cache-to-cache (CPU0 holds it M).
	r2, _ := s.Access(300, 1, 0x100, false)
	if r2.Level != LvlC2C {
		t.Errorf("after invalidate: level=%v, want C2C", r2.Level)
	}
	rep := s.Report()
	if rep.L1D.InvMisses != 1 {
		t.Errorf("L1D invalidation misses = %d, want 1", rep.L1D.InvMisses)
	}
	if rep.Snoop.Upgrades != 1 {
		t.Errorf("upgrades = %d", rep.Snoop.Upgrades)
	}
}

func TestSharedMemSilentEtoM(t *testing.T) {
	s := NewSharedMem(DefaultConfig())
	s.Access(0, 0, 0x100, false) // E
	r, _ := s.Access(100, 0, 0x100, true)
	if r.Done-100 != 1 || r.Level != LvlL1 {
		t.Errorf("silent E->M: lat=%d lvl=%v", r.Done-100, r.Level)
	}
}

func TestSharedMemWriteMissWithRemoteDirty(t *testing.T) {
	s := NewSharedMem(DefaultConfig())
	s.Access(0, 0, 0x100, true) // CPU0 write miss -> M
	s.Access(100, 1, 0x100, true)
	// The BusRdX was supplied cache-to-cache from CPU0's dirty copy.
	if s.snoop.Stats().CacheToCache == 0 {
		t.Error("write miss on remote-M should transfer cache-to-cache")
	}
	// CPU0's copies must be gone.
	if s.l1s[0].Probe(0x100) != nil || s.l2s[0].Probe(0x100) != nil {
		t.Error("remote copies survived BusRdX")
	}
}

// TestSharedMemMergedStoreUpgrades is the three-access sequence behind
// the MXS shared-mem sanitizer failures: a store that hits a Shared
// line whose read miss is still outstanding must upgrade on the bus like
// any other store to a Shared line. Skipping the upgrade left L1
// Modified over L2 Shared in the writer and a valid stale copy in the
// other sharer ("0 S/S, 1 M/S, 2 -/-, 3 -/-").
func TestSharedMemMergedStoreUpgrades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Check = check.New(16)
	s := NewSharedMem(cfg)
	const line = 0x4000
	defer func() {
		if v, ok := recover().(*check.Violation); ok {
			t.Fatalf("merged store broke coherence: %v", v)
		}
	}()
	s.Access(10, 0, line, false)   // CPU 0 fills E
	s.Access(1000, 1, line, false) // CPU 1 reads: both S, CPU 1's miss outstanding
	if _, _, pending := s.mshrs[1].Lookup(1001, line); !pending {
		t.Fatal("CPU 1's read miss is no longer outstanding at cycle 1001")
	}
	if _, ok := s.Access(1001, 1, line, true); !ok { // merges into that miss
		t.Fatal("store refused")
	}
	if s.l1s[0].Probe(line) != nil || s.l2s[0].Probe(line) != nil {
		t.Error("CPU 0 kept a copy of the line CPU 1 wrote")
	}
	l1, l2 := s.l1s[1].Probe(line), s.l2s[1].Probe(line)
	if l1 == nil || l2 == nil || l1.State != cache.Modified || l2.State != cache.Modified {
		t.Errorf("CPU 1 holds %v/%v, want M/M", l1, l2)
	}
	if up := s.snoop.Stats().Upgrades; up != 1 {
		t.Errorf("upgrades = %d, want 1", up)
	}
}

func TestSharedL2StoreInvalidatesOtherSharers(t *testing.T) {
	s := NewSharedL2(DefaultConfig())
	s.Access(0, 0, 0x200, false)   // CPU0 caches the line
	s.Access(100, 1, 0x200, false) // CPU1 caches the line
	s.Access(200, 2, 0x200, true)  // CPU2 writes through
	// Both sharers invalidated; their next accesses are invalidation
	// misses.
	r0, _ := s.Access(300, 0, 0x200, false)
	if r0.Level != LvlL2 {
		t.Errorf("refetch should hit L2, got %v", r0.Level)
	}
	rep := s.Report()
	if rep.L1D.InvMisses != 1 {
		t.Errorf("invalidation misses = %d, want 1 so far", rep.L1D.InvMisses)
	}
	if rep.Dir.Invalidations != 2 {
		t.Errorf("directory invalidations = %d, want 2", rep.Dir.Invalidations)
	}
}

func TestSharedL2StoreIsBufferedAndBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteBufDepth = 2
	s := NewSharedL2(cfg)
	// First two stores to uncached L2 lines are slow to drain (memory
	// fills) but complete in 1 CPU cycle.
	r, ok := s.Access(0, 0, 0x10000, true)
	if !ok || r.Done != 1 {
		t.Fatalf("store 1: %+v %v", r, ok)
	}
	r, ok = s.Access(1, 0, 0x20000, true)
	if !ok || r.Done != 2 {
		t.Fatalf("store 2: %+v %v", r, ok)
	}
	// Third store while both are in flight: refused.
	if _, ok := s.Access(2, 0, 0x30000, true); ok {
		t.Fatal("store 3 should be refused with a full write buffer")
	}
	// Much later, the buffer has drained.
	if _, ok := s.Access(500, 0, 0x30000, true); !ok {
		t.Fatal("store after drain refused")
	}
}

func TestSharedL1ConflictBetweenCPUs(t *testing.T) {
	// Two CPUs touching disjoint data conflict in the shared cache: fill
	// the same set from three "CPUs" and verify evictions occur.
	cfg := DefaultConfig()
	cfg.SharedL1Size = 256 // 4 sets x 2 ways x 32B
	cfg.SharedL1Assoc = 2
	cfg.SharedL1Banks = 1
	s := NewSharedL1(cfg)
	s.Access(0, 0, 0x0000, false)
	s.Access(100, 1, 0x0080, false) // same set (stride 128B)
	s.Access(200, 2, 0x0100, false) // evicts CPU0's line
	r, _ := s.Access(300, 0, 0x0000, false)
	if r.Level == LvlL1 {
		t.Error("expected a conflict miss in the shared L1")
	}
	rep := s.Report()
	if rep.L1D.InvMisses != 0 {
		t.Error("conflict misses must not classify as invalidation misses")
	}
}

func TestSharedL1BankContention(t *testing.T) {
	cfg := DefaultConfig().MXS()
	s := NewSharedL1(cfg)
	// Warm the line.
	s.Access(0, 0, 0x1000, false)
	s.Access(10, 1, 0x1000, false)
	// Two CPUs hit the same bank in the same cycle: the second is delayed
	// by the 1-cycle bank occupancy.
	r0, _ := s.Access(100, 0, 0x1000, false)
	r1, _ := s.Access(100, 1, 0x1000, false)
	if r0.Done != 103 {
		t.Errorf("first: done=%d, want 103", r0.Done)
	}
	if r1.Done != 104 {
		t.Errorf("second (bank conflict): done=%d, want 104", r1.Done)
	}
	// A different bank in the same cycle is not delayed. (Warm the line
	// early so its fill has completed by cycle 100.)
	s.Access(20, 2, 0x1020, false)
	r2, _ := s.Access(100, 2, 0x1020, false)
	if r2.Done != 103 {
		t.Errorf("different bank: done=%d, want 103", r2.Done)
	}
}

func TestMSHRRefusal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	s := NewSharedMem(cfg)
	if _, ok := s.Access(0, 0, 0x1000, false); !ok {
		t.Fatal("first miss refused")
	}
	// A second distinct miss by the same CPU while the first is in flight
	// must be refused.
	if _, ok := s.Access(1, 0, 0x2000, false); ok {
		t.Fatal("second miss should be refused with 1 MSHR")
	}
	// A hit on the in-flight line is allowed (secondary miss merge) and
	// completes no earlier than the fill.
	r, ok := s.Access(2, 0, 0x1004, false)
	if !ok {
		t.Fatal("secondary miss refused")
	}
	if r.Done < 61 {
		t.Errorf("secondary miss done=%d, want >= 61 (fill time)", r.Done)
	}
	// After the fill completes, new misses are accepted.
	if _, ok := s.Access(100, 0, 0x2000, false); !ok {
		t.Fatal("miss after fill refused")
	}
}

func TestReservations(t *testing.T) {
	for _, sys := range []System{
		NewSharedL1(DefaultConfig()),
		NewSharedL2(DefaultConfig()),
		NewSharedMem(DefaultConfig()),
	} {
		sys.LLReserve(0, 0x100)
		if !sys.SCCheck(0, 0x104) { // same line
			t.Errorf("%s: SC on reserved line failed", sys.Name())
		}
		if sys.SCCheck(0, 0x104) {
			t.Errorf("%s: SC consumed reservation twice", sys.Name())
		}
		// A store by another CPU breaks the reservation.
		sys.LLReserve(1, 0x200)
		sys.Access(10, 2, 0x204, true)
		if sys.SCCheck(1, 0x200) {
			t.Errorf("%s: reservation survived remote store", sys.Name())
		}
		// ClearReservation drops it too.
		sys.LLReserve(3, 0x300)
		sys.ClearReservation(3)
		if sys.SCCheck(3, 0x300) {
			t.Errorf("%s: reservation survived ClearReservation", sys.Name())
		}
	}
}

func TestIFetchPaths(t *testing.T) {
	for _, sys := range []System{
		NewSharedL1(DefaultConfig()),
		NewSharedL2(DefaultConfig()),
		NewSharedMem(DefaultConfig()),
	} {
		r := sys.IFetch(0, 0, 0x4000)
		if r.Level != LvlMem {
			t.Errorf("%s: cold ifetch level=%v, want Mem", sys.Name(), r.Level)
		}
		r = sys.IFetch(100, 0, 0x4004)
		if r.Done != 101 || r.Level != LvlL1 {
			t.Errorf("%s: warm ifetch done=%d lvl=%v", sys.Name(), r.Done, r.Level)
		}
		// Second CPU misses its own I-cache but should find the line in L2
		// (shared architectures) or remotely/memory (shared-mem).
		r = sys.IFetch(200, 1, 0x4000)
		if r.Level == LvlL1 {
			t.Errorf("%s: cpu1 cold ifetch hit L1?", sys.Name())
		}
		rep := sys.Report()
		if rep.L1I.Accesses() != 3 || rep.L1I.Misses() != 2 {
			t.Errorf("%s: L1I stats %+v", sys.Name(), rep.L1I)
		}
	}
}

func TestL2AssociativityConfigurable(t *testing.T) {
	// The MP3D ablation: a direct-mapped L2 suffers conflict misses that a
	// 4-way L2 avoids. Two lines 2MB/1-way apart conflict only when DM.
	cfgDM := DefaultConfig()
	sDM := NewSharedL1(cfgDM)
	cfg4 := DefaultConfig()
	cfg4.L2Assoc = 4
	s4 := NewSharedL1(cfg4)

	stride := cfgDM.L2Size // conflicting stride for DM
	for _, s := range []*SharedL1{sDM, s4} {
		now := uint64(0)
		for i := 0; i < 4; i++ {
			// Alternate two conflicting L2 lines; keep L1 out of the way by
			// using addresses that conflict in L1 too... just evict: use
			// distinct L1 sets per iteration is hard; rely on L2 stats.
			s.l2.Access(uint32(stride)*uint32(i%2), false)
			if s.l2.Probe(uint32(stride)*uint32(i%2)) == nil {
				s.l2.Fill(uint32(stride)*uint32(i%2), 2)
			}
			now += 100
		}
	}
	if sDM.l2.Stats().Misses() <= s4.l2.Stats().Misses() {
		t.Errorf("DM L2 misses (%d) should exceed 4-way (%d)",
			sDM.l2.Stats().Misses(), s4.l2.Stats().Misses())
	}
}

func TestSharedL2LoadAfterL2EvictIsReplacementMiss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Size = 4096 // tiny: 128 lines direct-mapped
	s := NewSharedL2(cfg)
	s.Access(0, 0, 0x0, false)
	// Conflict in L2: same L2 set, stride = L2 size.
	s.Access(100, 1, 4096, false)
	// CPU0's L1 line was removed for inclusion; its re-read must be a
	// replacement miss, not an invalidation miss.
	s.Access(200, 0, 0x0, false)
	rep := s.Report()
	if rep.L1D.InvMisses != 0 {
		t.Errorf("inclusion eviction misclassified as invalidation: %+v", rep.L1D)
	}
	// Two inclusion evicts: CPU1's fill evicted CPU0's line, and CPU0's
	// refetch evicted CPU1's line right back (they conflict in the L2).
	if rep.Dir.InclusionEvicts != 2 {
		t.Errorf("inclusion evicts = %d, want 2", rep.Dir.InclusionEvicts)
	}
}

// TestIFetchHitMatchesIFetch: IFetchHit says hit exactly when the IFetch
// that follows returns IFetch's hit (the next cycle, at L1), on the
// line's own CPU only, and changes nothing: Report() is byte-equal
// before and after it, and the IFetch that follows, hit or miss, returns
// and leaves what it does on a twin system never asked, so no L2 bank,
// port or bus was acquired either.
func TestIFetchHitMatchesIFetch(t *testing.T) {
	report := func(s System) string {
		b, err := json.Marshal(s.Report())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, newSys := range []func() System{
		func() System { return NewSharedL1(DefaultConfig()) },
		func() System { return NewSharedL2(DefaultConfig()) },
		func() System { return NewSharedMem(DefaultConfig()) },
	} {
		probe, twin := newSys(), newSys()
		name := probe.Name()
		for _, s := range []System{probe, twin} {
			s.IFetch(0, 0, 0x4000)
			s.Access(100, 1, 0x8000, false)
		}
		hitter := probe.(IFetchHitter)

		now := uint64(200)
		for _, f := range []struct {
			cpu  int
			addr uint32
			hit  bool
		}{{0, 0x4004, true}, {1, 0x4000, false}, {0, 0x5000, false}, {0, 0x8000, false}, {1, 0x4008, true}} {
			before := report(probe)
			if got := hitter.IFetchHit(f.cpu, f.addr); got != f.hit {
				t.Errorf("%s: IFetchHit(cpu %d, %#x) = %v, want %v", name, f.cpu, f.addr, got, f.hit)
			}
			if after := report(probe); after != before {
				t.Errorf("%s: IFetchHit(cpu %d, %#x) changed Report()\nbefore %s\nafter  %s", name, f.cpu, f.addr, before, after)
			}
			got, want := probe.IFetch(now, f.cpu, f.addr), twin.IFetch(now, f.cpu, f.addr)
			if got != want {
				t.Errorf("%s: IFetch(cpu %d, %#x) = %+v, twin %+v", name, f.cpu, f.addr, got, want)
			}
			if hit := got == (Result{Done: now + 1, Level: LvlL1}); hit != f.hit {
				t.Errorf("%s: IFetch(cpu %d, %#x) = %+v, hit %v, want %v", name, f.cpu, f.addr, got, hit, f.hit)
			}
			if got, want := report(probe), report(twin); got != want {
				t.Errorf("%s: after IFetch(cpu %d, %#x) Report() = %s\ntwin: %s", name, f.cpu, f.addr, got, want)
			}
			now += 100
		}
	}
}

// refCase is one reference path of a system: ref makes one reference
// that takes it, and want says whether the last reference did.
type refCase struct {
	name string
	ref  func() (Result, bool)
	want func(Result) bool
}

// referenceCases returns sys's reference paths with no tracer attached: a
// load hit, a load miss, a store through the write buffer, an I-fetch
// and an I-cache hit probe. The data references are 1000 cycles apart:
// every earlier one has completed and the write buffer has drained, so
// none is refused.
func referenceCases(sys System) []refCase {
	now := uint64(0)
	access := func(addr uint32, write bool) (Result, bool) {
		now += 1000
		return sys.Access(now, 0, addr, write)
	}
	// Four lines 4 MiB apart share a set in every L1 and L2 of the
	// default configuration, so visiting them in turn always misses.
	miss := uint32(0)
	// Asserted once, out of the measured runs: the runtime now and then
	// grows a type-assertion site's cache, which allocates.
	hitter := sys.(IFetchHitter)
	sys.IFetch(now, 0, 0x3000) // so each I-fetch case hits, run alone or not
	return []refCase{
		{"load-hit", func() (Result, bool) { return access(0x1000, false) },
			func(r Result) bool { return r.Level == LvlL1 }},
		{"load-miss", func() (Result, bool) { miss = (miss + 1) % 4; return access(0x100000+miss<<22, false) },
			func(r Result) bool { return r.Level != LvlL1 }},
		{"store", func() (Result, bool) { return access(0x2000, true) },
			func(r Result) bool { return r.Done == now+1 }},
		{"ifetch", func() (Result, bool) { now += 1000; return sys.IFetch(now, 0, 0x3000), true },
			func(r Result) bool { return r.Level == LvlL1 }},
		{"ifetch-hit", func() (Result, bool) { return Result{}, hitter.IFetchHit(0, 0x3000) },
			func(Result) bool { return true }},
	}
}

// TestReferencesDoNotAllocate holds the reference paths of all three
// architectures (referenceCases) to zero allocations.
// AllocsPerRun truncates its average, so each case is one run of 100
// references: an append that grows a slice only now and then shows too.
func TestReferencesDoNotAllocate(t *testing.T) {
	for _, a := range archs {
		arch := a.mk(DefaultConfig())
		for _, c := range referenceCases(arch) {
			var last Result
			ok := true
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 100; i++ {
					var accepted bool
					last, accepted = c.ref()
					ok = ok && accepted
				}
			})
			if !ok || !c.want(last) {
				t.Errorf("%s %s: last reference %+v (accepted %v) is not the path under test", arch.Name(), c.name, last, ok)
			}
			if allocs != 0 {
				t.Errorf("%s %s: %v allocations in 100 references, want 0", arch.Name(), c.name, allocs)
			}
		}
	}
}

// TestNewSystemAllocates: building a machine costs its caches' page
// tables and its per-CPU state, not the 1.1 MiB of tag entries its
// caches can hold.
func TestNewSystemAllocates(t *testing.T) {
	for _, a := range archs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := a.mk(DefaultConfig())
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: New allocated %d bytes, want at most 64 KiB", a.name, got)
		}
	}
}

// BenchmarkAccess times each reference path of referenceCases on each
// architecture, per reference. The load-hit and store rows of every
// architecture are on CI's 0-allocs/op list.
func BenchmarkAccess(b *testing.B) {
	for _, a := range archs {
		for _, c := range referenceCases(a.mk(DefaultConfig())) {
			b.Run(a.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				c.ref() // a cold line's first reference misses
				b.ResetTimer()
				var last Result
				ok := true
				for i := 0; i < b.N; i++ {
					var accepted bool
					last, accepted = c.ref()
					ok = ok && accepted
				}
				if !ok || !c.want(last) {
					b.Fatalf("last reference %+v (accepted %v) is not the path under test", last, ok)
				}
			})
		}
	}
}
