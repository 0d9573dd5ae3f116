package coherence

import (
	"testing"

	"cmpsim/internal/cache"
)

func newNode() Node {
	return Node{
		L1: cache.New(cache.Config{Name: "l1", SizeBytes: 256, LineBytes: 32, Assoc: 2}),
		L2: cache.New(cache.Config{Name: "l2", SizeBytes: 1024, LineBytes: 32, Assoc: 2}),
	}
}

func newSnoop(n int) (*Snoop, []Node) {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = newNode()
	}
	return NewSnoop(nodes), nodes
}

func TestSnoopReadDowngradesRemoteDirty(t *testing.T) {
	s, nodes := newSnoop(2)
	nodes[1].L2.Fill(0x100, cache.Modified)
	nodes[1].L1.Fill(0x100, cache.Modified)
	r := s.Read(0, 0, 0x100)
	if !r.RemoteDirty || !r.RemoteCopy {
		t.Fatalf("result = %+v", r)
	}
	if nodes[1].L2.Probe(0x100).State != cache.Shared {
		t.Error("remote L2 not downgraded")
	}
	if nodes[1].L1.Probe(0x100).State != cache.Shared {
		t.Error("remote L1 not downgraded")
	}
	if s.Stats().CacheToCache != 1 {
		t.Errorf("c2c = %d", s.Stats().CacheToCache)
	}
}

func TestSnoopReadCleanRemote(t *testing.T) {
	s, nodes := newSnoop(3)
	nodes[2].L2.Fill(0x100, cache.Exclusive)
	r := s.Read(0, 0, 0x100)
	if r.RemoteDirty || !r.RemoteCopy {
		t.Fatalf("result = %+v", r)
	}
	if nodes[2].L2.Probe(0x100).State != cache.Shared {
		t.Error("remote E not downgraded to S")
	}
}

func TestSnoopReadNoRemote(t *testing.T) {
	s, _ := newSnoop(4)
	r := s.Read(0, 1, 0x200)
	if r.RemoteCopy || r.RemoteDirty || r.Invalidated != 0 {
		t.Fatalf("result = %+v", r)
	}
}

func TestSnoopWriteInvalidatesAll(t *testing.T) {
	s, nodes := newSnoop(4)
	nodes[1].L2.Fill(0x100, cache.Shared)
	nodes[1].L1.Fill(0x100, cache.Shared)
	nodes[2].L2.Fill(0x100, cache.Modified)
	r := s.Write(0, 0, 0x100)
	if !r.RemoteDirty || r.Invalidated != 3 {
		t.Fatalf("result = %+v", r)
	}
	if nodes[1].L2.Probe(0x100) != nil || nodes[1].L1.Probe(0x100) != nil || nodes[2].L2.Probe(0x100) != nil {
		t.Error("remote copies survived BusRdX")
	}
	// Invalidation-miss classification: node 1's next L1 miss on the line
	// must be an invalidation miss.
	res := nodes[1].L1.Access(0x100, false)
	if res.Hit || !res.InvMiss {
		t.Errorf("expected invalidation miss, got %+v", res)
	}
}

func TestSnoopUpgrade(t *testing.T) {
	s, nodes := newSnoop(2)
	nodes[0].L1.Fill(0x100, cache.Shared)
	nodes[1].L1.Fill(0x100, cache.Shared)
	r := s.Upgrade(0, 0, 0x100)
	if r.Invalidated != 1 || r.RemoteDirty {
		t.Fatalf("result = %+v", r)
	}
	if nodes[1].L1.Probe(0x100) != nil {
		t.Error("remote S copy survived upgrade")
	}
	if nodes[0].L1.Probe(0x100) == nil {
		t.Error("upgrader's own copy was invalidated")
	}
	if s.Stats().Upgrades != 1 || s.Stats().InvalidationsSent != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

// TestLocal lists every input the shared-memory system gives Local: an
// L1 hit in S, E or M (the L2 is not probed there, so it is passed
// Invalid) and an L1 miss with the L2 in I, S, E or M, each for a read
// and for a write.
func TestLocal(t *testing.T) {
	const I, S, E, M = cache.Invalid, cache.Shared, cache.Exclusive, cache.Modified
	for _, c := range []struct {
		l1, l2   cache.State
		write    bool
		nl1, nl2 cache.State
		bus      Bus
	}{
		{S, I, false, S, I, BusNone},
		{E, I, false, E, I, BusNone},
		{M, I, false, M, I, BusNone},
		{S, I, true, M, M, BusUpgr},
		{E, I, true, M, I, BusNone},
		{M, I, true, M, I, BusNone},
		{I, I, false, E, E, BusRd}, // Shared if a remote copy answers (TestFill)
		{I, I, true, M, M, BusRdX},
		{I, S, false, S, S, BusNone},
		{I, S, true, M, M, BusUpgr},
		{I, E, false, E, E, BusNone},
		{I, E, true, M, M, BusNone},
		{I, M, false, E, M, BusNone},
		{I, M, true, M, M, BusNone},
	} {
		nl1, nl2, bus := Local(c.l1, c.l2, c.write)
		if nl1 != c.nl1 || nl2 != c.nl2 || bus != c.bus {
			t.Errorf("Local(%v, %v, write=%v) = %v, %v, %d; want %v, %v, %d",
				c.l1, c.l2, c.write, nl1, nl2, bus, c.nl1, c.nl2, c.bus)
		}
	}
}

// TestFill: only a BusRd's Exclusive fill turns Shared, and only when a
// remote copy answered.
func TestFill(t *testing.T) {
	for _, c := range []struct {
		r        SnoopResult
		st, want cache.State
	}{
		{SnoopResult{}, cache.Exclusive, cache.Exclusive},
		{SnoopResult{RemoteCopy: true}, cache.Exclusive, cache.Shared},
		{SnoopResult{RemoteCopy: true, RemoteDirty: true}, cache.Exclusive, cache.Shared},
		{SnoopResult{RemoteCopy: true, RemoteDirty: true}, cache.Modified, cache.Modified},
	} {
		if got := c.r.Fill(c.st); got != c.want {
			t.Errorf("%+v.Fill(%v) = %v, want %v", c.r, c.st, got, c.want)
		}
	}
}

func TestSnoopDo(t *testing.T) {
	s, nodes := newSnoop(2)
	nodes[1].L2.Fill(0x100, cache.Exclusive)
	if r := s.Do(0, 0, 0x100, BusRd); !r.RemoteCopy || nodes[1].L2.Probe(0x100).State != cache.Shared {
		t.Fatalf("BusRd: %+v, remote %v", r, nodes[1].L2.Probe(0x100))
	}
	if r := s.Do(1, 0, 0x100, BusUpgr); r.Invalidated != 1 || nodes[1].L2.Probe(0x100) != nil {
		t.Fatalf("BusUpgr: %+v", r)
	}
	nodes[1].L2.Fill(0x100, cache.Modified)
	if r := s.Do(2, 0, 0x100, BusRdX); !r.RemoteDirty || nodes[1].L2.Probe(0x100) != nil {
		t.Fatalf("BusRdX: %+v", r)
	}
	if r := s.Do(3, 0, 0x100, BusNone); r.RemoteCopy || r.Invalidated != 0 {
		t.Fatalf("BusNone: %+v", r)
	}
	if st := s.Stats(); st.ReadMissesSnooped != 1 || st.Upgrades != 1 || st.WriteMissesSnooped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func newDir(n int) (*Directory, []*cache.Cache) {
	l1s := make([]*cache.Cache, n)
	for i := range l1s {
		l1s[i] = cache.New(cache.Config{Name: "l1", SizeBytes: 256, LineBytes: 32, Assoc: 2})
	}
	return NewDirectory(l1s), l1s
}

func TestDirectoryWriteInvalidatesOtherSharers(t *testing.T) {
	d, l1s := newDir(4)
	for i := 0; i < 3; i++ {
		l1s[i].Fill(0x100, cache.Shared)
		d.AddSharer(0x100, i)
	}
	inv := d.Write(0, 0x100, 0)
	if inv != 2 {
		t.Fatalf("invalidated %d, want 2", inv)
	}
	if l1s[0].Probe(0x100) == nil {
		t.Error("writer's own copy removed")
	}
	if l1s[1].Probe(0x100) != nil || l1s[2].Probe(0x100) != nil {
		t.Error("other sharers survived")
	}
	if d.Sharers(0x100) != 1 {
		t.Errorf("sharers = %b", d.Sharers(0x100))
	}
	// Subsequent miss by a victim classifies as invalidation miss.
	res := l1s[1].Access(0x100, false)
	if res.Hit || !res.InvMiss {
		t.Errorf("expected invalidation miss, got %+v", res)
	}
}

func TestDirectoryWriteByNonSharer(t *testing.T) {
	d, l1s := newDir(2)
	l1s[1].Fill(0x100, cache.Shared)
	d.AddSharer(0x100, 1)
	inv := d.Write(0, 0x100, 0) // CPU 0 writes without holding the line
	if inv != 1 {
		t.Fatalf("invalidated %d, want 1", inv)
	}
	if d.Sharers(0x100) != 0 {
		t.Errorf("sharers = %b, want empty", d.Sharers(0x100))
	}
}

func TestDirectoryL2EvictIsNotInvalidationMiss(t *testing.T) {
	d, l1s := newDir(2)
	l1s[0].Fill(0x100, cache.Shared)
	d.AddSharer(0x100, 0)
	n := d.L2Evict(0, 0x100)
	if n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	res := l1s[0].Access(0x100, false)
	if res.Hit || res.InvMiss {
		t.Errorf("expected replacement miss, got %+v", res)
	}
	if d.Sharers(0x100) != 0 {
		t.Error("directory entry survived eviction")
	}
	if d.Stats().InclusionEvicts != 1 {
		t.Errorf("stats = %+v", d.Stats())
	}
}

func TestDirectoryDropSharer(t *testing.T) {
	d, _ := newDir(3)
	d.AddSharer(0x40, 0)
	d.AddSharer(0x40, 2)
	d.DropSharer(0x40, 0)
	if d.Sharers(0x40) != 1<<2 {
		t.Errorf("sharers = %b", d.Sharers(0x40))
	}
	d.DropSharer(0x40, 2)
	if d.Sharers(0x40) != 0 {
		t.Error("sharer mask not cleaned up")
	}
}
