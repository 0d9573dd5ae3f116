package memsys

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"cmpsim/internal/obsv"
)

func TestTracerObservesAccesses(t *testing.T) {
	for _, mk := range []func(Config) System{
		func(c Config) System { return NewSharedL1(c) },
		func(c Config) System { return NewSharedL2(c) },
		func(c Config) System { return NewSharedMem(c) },
	} {
		ring := obsv.NewRing(1024)
		cfg := DefaultConfig()
		cfg.Trace = ring
		s := mk(cfg)
		s.Access(0, 1, 0x1000, false)
		s.Access(100, 2, 0x2000, true)
		var got []obsv.Event
		for _, ev := range ring.Events() {
			if ev.Kind == obsv.EvLoad || ev.Kind == obsv.EvStore {
				got = append(got, ev)
				if ev.Arg == 0 {
					t.Error("latency must be at least one cycle")
				}
			}
		}
		if len(got) != 2 {
			t.Fatalf("%s: tracer saw %d access events, want 2", s.Name(), len(got))
		}
		if got[0].CPU != 1 || got[0].Addr != 0x1000 || got[0].Kind != obsv.EvLoad || Level(got[0].Level) != LvlMem {
			t.Errorf("%s: first event = %+v", s.Name(), got[0])
		}
		if got[1].CPU != 2 || got[1].Kind != obsv.EvStore {
			t.Errorf("%s: second event = %+v", s.Name(), got[1])
		}
		// A cold-start load miss must also have produced MSHR and grant
		// activity from the instrumented sub-components.
		var sawAlloc, sawGrant bool
		for _, ev := range ring.Events() {
			switch ev.Kind {
			case obsv.EvMSHRAlloc:
				sawAlloc = true
			case obsv.EvGrant:
				sawGrant = true
			}
		}
		if !sawAlloc || !sawGrant {
			t.Errorf("%s: missing sub-component events (mshr-alloc=%v grant=%v)",
				s.Name(), sawAlloc, sawGrant)
		}
	}
}

func TestSharedDataPolicySplitsWritePaths(t *testing.T) {
	// Private stores must not touch the directory or write through;
	// shared stores must do both.
	cfg := DefaultConfig()
	cfg.SharedData = func(a uint32) bool { return a >= 0x10000 }
	s := NewSharedL2(cfg)

	// Private line: load then store. The store dirties the L1 line
	// without an L2 write access.
	s.Access(0, 0, 0x1000, false)
	l2Before := s.l2.Stats().Writes
	s.Access(100, 0, 0x1000, true)
	if s.l2.Stats().Writes != l2Before {
		t.Error("private store wrote through to the L2")
	}
	if ln := s.dcaches[0].Probe(0x1000); ln == nil || ln.State.String() != "M" {
		t.Error("private store did not dirty the L1 line")
	}

	// Shared line: two sharers; a store by a third invalidates both and
	// writes through.
	s.Access(200, 0, 0x20000, false)
	s.Access(300, 1, 0x20000, false)
	s.Access(400, 2, 0x20000, true)
	if s.dcaches[0].Probe(0x20000) != nil || s.dcaches[1].Probe(0x20000) != nil {
		t.Error("shared store did not invalidate the other sharers")
	}
	if s.l2.Stats().Writes == l2Before {
		t.Error("shared store did not write through to the L2")
	}
}

func TestPrivateDirtyVictimWritesBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SharedData = func(a uint32) bool { return false } // everything private
	s := NewSharedL2(cfg)
	// Dirty a line, then evict it with conflicting fills (16KB 2-way:
	// set stride 8KB).
	s.Access(0, 0, 0x1000, false)
	s.Access(10, 0, 0x1000, true)
	memBefore := s.mem.Stats().Acquires
	s.Access(100, 0, 0x1000+8<<10, false)
	s.Access(200, 0, 0x1000+16<<10, false)
	// The dirty victim drains into the L2 (it is resident there), not to
	// memory; its L2 line must now be dirty.
	if ln := s.l2.Probe(0x1000); ln == nil || ln.State.String() != "M" {
		t.Error("write-back victim did not dirty its L2 line")
	}
	_ = memBefore
}

func TestWriteBufferDrainsOverTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteBufDepth = 1
	s := NewSharedL1(cfg)
	if _, ok := s.Access(0, 0, 0x1000, true); !ok {
		t.Fatal("first store refused")
	}
	// Immediately after, the single-entry buffer holds the miss.
	if _, ok := s.Access(1, 0, 0x2000, true); ok {
		t.Fatal("second store should be refused while the first drains")
	}
	// The first store's miss completes by ~cycle 61.
	if _, ok := s.Access(200, 0, 0x2000, true); !ok {
		t.Fatal("store after drain refused")
	}
}

// Property: every accepted access completes strictly after it was
// issued, and never earlier than the 1-cycle L1 time.
func TestQuickAccessCompletionMonotonic(t *testing.T) {
	mkSys := []func(Config) System{
		func(c Config) System { return NewSharedL1(c) },
		func(c Config) System { return NewSharedL2(c) },
		func(c Config) System { return NewSharedMem(c) },
	}
	f := func(seed int64) bool {
		cfg := DefaultConfig()
		s := mkSys[int(uint64(seed)%3)](cfg)
		rng := seed
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return uint64(rng)
		}
		now := uint64(0)
		for i := 0; i < 200; i++ {
			now += next() % 8
			cpu := int(next() % 4)
			addr := uint32(next() % (1 << 22))
			addr &^= 3
			write := next()%3 == 0
			res, ok := s.Access(now, cpu, addr, write)
			if !ok {
				continue
			}
			if res.Done <= now {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: IFetch always completes in the future and at a sane level.
func TestQuickIFetchSane(t *testing.T) {
	f := func(seed int64) bool {
		s := NewSharedL2(DefaultConfig())
		rng := seed
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return uint64(rng)
		}
		now := uint64(0)
		for i := 0; i < 200; i++ {
			now += next() % 4
			r := s.IFetch(now, int(next()%4), uint32(next()%(1<<20))&^3)
			if r.Done <= now || r.Level >= NumLevels {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// wbufOf returns cpu's write buffer in any of the three compositions.
func wbufOf(s System, cpu int) *writeBuf {
	switch s := s.(type) {
	case *SharedL1:
		return &s.wbufs[cpu]
	case *SharedL2:
		return &s.wbufs[cpu]
	case *SharedMem:
		return &s.wbufs[cpu]
	}
	return nil
}

// TestRefusalRetryBound pins the contract of a refused Result.Done in
// every architecture, for the write buffer and for the MSHRs: it is the
// earliest completion among what fills the structure, a retry of the
// same reference at any earlier cycle is refused again and leaves
// Report() as it was, and the retry at that cycle is accepted.
func TestRefusalRetryBound(t *testing.T) {
	// check retries CPU 0's reference refused at now with bound r.Done.
	check := func(t *testing.T, s System, now uint64, r Result, earliest uint64, addr uint32, write bool) {
		t.Helper()
		if r.Done != earliest {
			t.Errorf("refused at %d with retry cycle %d, want %d", now, r.Done, earliest)
		}
		before := s.Report()
		for at := now + 1; at < r.Done; at++ {
			if _, ok := s.Access(at, 0, addr, write); ok {
				t.Fatalf("retry at %d accepted, before the retry cycle %d", at, r.Done)
			}
			if after := s.Report(); !reflect.DeepEqual(before, after) {
				t.Fatalf("retry at %d, before the retry cycle %d, changed the report\nbefore: %+v\n after: %+v", at, r.Done, before, after)
			}
		}
		if _, ok := s.Access(r.Done, 0, addr, write); !ok {
			t.Errorf("retry at the retry cycle %d refused, and nobody else took the slot", r.Done)
		}
	}
	for _, a := range archs {
		a := a
		t.Run(a.name+"/write-buffer", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.WriteBufDepth = 2
			s := a.mk(cfg)
			for i, addr := range []uint32{0x1000, 0x2000} {
				if _, ok := s.Access(uint64(i), 0, addr, true); !ok {
					t.Fatalf("store %d refused while the buffer has room", i)
				}
			}
			w := wbufOf(s, 0)
			if len(w.pending) != 2 || w.pending[0] == w.pending[1] {
				t.Fatalf("in-flight stores drain at %v, want two distinct cycles", w.pending)
			}
			r, ok := s.Access(2, 0, 0x3000, true)
			if ok {
				t.Fatal("third store accepted by a two-entry buffer")
			}
			check(t, s, 2, r, min(w.pending[0], w.pending[1]), 0x3000, true)
		})
		for _, write := range []bool{false, true} {
			write := write
			if write && a.name == "shared-l2" {
				continue // a write-through store takes no MSHR
			}
			t.Run(fmt.Sprintf("%s/mshr/write=%v", a.name, write), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.MSHRs = 1
				s := a.mk(cfg)
				now, earliest := fillMSHRs(t, s, cfg)
				r, ok := s.Access(now, 0, 0x9000, write)
				if ok {
					t.Fatal("miss accepted with every MSHR busy")
				}
				if r.Level != LvlL1 {
					t.Fatalf("refusal blames %v, want the MSHRs' L1", r.Level)
				}
				check(t, s, now, r, earliest, 0x9000, write)
			})
		}
	}
}

// archs builds each of the three compositions from a Config.
var archs = []struct {
	name string
	mk   func(Config) System
}{
	{"shared-l1", func(c Config) System { return NewSharedL1(c) }},
	{"shared-l2", func(c Config) System { return NewSharedL2(c) }},
	{"shared-mem", func(c Config) System { return NewSharedMem(c) }},
}

// fillMSHRs has every CPU of s (built from cfg with MSHRs = 1) take one
// load miss, cpu at cycle cpu, so the file CPU 0's next miss needs is
// full either way: shared-L1's one file holds an entry per CPU, the
// private files one. It returns the next cycle and the earliest fill
// among the entries of that file.
func fillMSHRs(t *testing.T, s System, cfg Config) (now, earliest uint64) {
	t.Helper()
	_, oneFile := s.(*SharedL1)
	earliest = ^uint64(0)
	for cpu := 0; cpu < cfg.NumCPUs; cpu++ {
		r, ok := s.Access(uint64(cpu), cpu, 0x1000*uint32(cpu+1), false)
		if !ok {
			t.Fatalf("cpu %d's first miss refused", cpu)
		}
		if oneFile || cpu == 0 {
			earliest = min(earliest, r.Done)
		}
	}
	return uint64(cfg.NumCPUs), earliest
}

// TestRefusedStoreKeepsReservations holds the store half of the refusal
// rule: a store refused for a full write buffer or a full MSHR file has
// not happened, so another CPU's LL reservation on its line survives
// it, and the same store accepted later breaks it.
func TestRefusedStoreKeepsReservations(t *testing.T) {
	const x = 0x9000
	for _, a := range archs {
		a := a
		for _, kind := range []string{"write-buffer", "mshr"} {
			kind := kind
			t.Run(a.name+"/"+kind, func(t *testing.T) {
				cfg := DefaultConfig()
				// Everything private: in shared-L2 only a write-back store
				// misses behind an MSHR.
				cfg.SharedData = func(uint32) bool { return false }
				var now uint64
				var s System
				if kind == "mshr" {
					cfg.MSHRs = 1
					s = a.mk(cfg)
					now, _ = fillMSHRs(t, s, cfg)
				} else {
					cfg.WriteBufDepth = 1
					s = a.mk(cfg)
					if _, ok := s.Access(0, 0, 0x1000, true); !ok {
						t.Fatal("first store refused while the buffer has room")
					}
					now = 1
				}
				s.LLReserve(1, x)
				r, ok := s.Access(now, 0, x, true)
				if ok {
					t.Fatalf("%s: store accepted with the %s full", a.name, kind)
				}
				if !s.SCCheck(1, x) {
					t.Fatalf("%s: a store refused with the %s full broke CPU 1's reservation", a.name, kind)
				}
				s.LLReserve(1, x)
				if _, ok := s.Access(r.Done, 0, x, true); !ok {
					t.Fatalf("%s: store refused (%s) at its retry cycle %d", a.name, kind, r.Done)
				}
				if s.SCCheck(1, x) {
					t.Errorf("%s: the store accepted after the %s refusal left CPU 1's reservation standing", a.name, kind)
				}
			})
		}
	}
}

func TestWriteBufNextFree(t *testing.T) {
	for _, tc := range []struct {
		pending []uint64
		want    uint64
	}{
		{nil, ^uint64(0)},
		{[]uint64{40}, 40},
		{[]uint64{90, 40, 70}, 40},
		{[]uint64{40, 40}, 40},
	} {
		w := writeBuf{depth: len(tc.pending), pending: tc.pending}
		if got := w.nextFree(); got != tc.want {
			t.Errorf("nextFree of %v = %d, want %d", tc.pending, got, tc.want)
		}
		if tc.pending != nil && (!w.full(tc.want-1) || w.full(tc.want)) {
			t.Errorf("buffer %v: full must flip at nextFree %d", tc.pending, tc.want)
		}
	}
}
