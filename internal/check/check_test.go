package check

import (
	"strings"
	"testing"

	"cmpsim/internal/cache"
	"cmpsim/internal/obsv"
)

// mustViolate runs f and requires it to panic with a *Violation on the
// given rule, which it returns.
func mustViolate(t *testing.T, rule string, f func()) (v *Violation) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("expected a %q violation, got none", rule)
		}
		var ok bool
		if v, ok = r.(*Violation); !ok {
			t.Fatalf("panic value %T, want *Violation", r)
		}
		if v.Rule != rule {
			t.Fatalf("violation rule %q, want %q", v.Rule, rule)
		}
	}()
	f()
	return nil
}

func line(st cache.State) *cache.Line { return &cache.Line{State: st} }

func TestAccessTimeViolations(t *testing.T) {
	c := New(8)
	c.CheckAccessTime(100, 101, 0, 0x1000) // ok
	c.CheckAccessTime(100, 100, 0, 0x1000) // ok: zero-latency boundary

	mustViolate(t, "cycle-monotonic", func() {
		c2 := New(8)
		c2.CheckAccessTime(100, 99, 0, 0x1000) // completes before issue
	})
	mustViolate(t, "cycle-monotonic", func() {
		c2 := New(8)
		c2.CheckAccessTime(100, 101, 1, 0x1000)
		c2.CheckAccessTime(50, 51, 1, 0x2000) // CPU 1 moved backwards
	})

	// The order is machine-wide: CPU 1 may not issue below CPU 0's
	// last access, and the violation names both CPUs.
	v := mustViolate(t, "cycle-monotonic", func() {
		c3 := New(8)
		c3.CheckAccessTime(100, 101, 0, 0x1000)
		c3.CheckAccessTime(50, 51, 1, 0x2000)
	})
	if !strings.Contains(v.Msg, "cpu 1 issued an access at cycle 50 after cpu 0's at cycle 100") {
		t.Errorf("violation %v does not name both CPUs and cycles", v)
	}

	// CPUs interleave at one cycle and move forward together.
	c4 := New(8)
	c4.CheckAccessTime(100, 101, 1, 0x1000)
	c4.CheckAccessTime(100, 101, 0, 0x2000)
	c4.CheckAccessTime(101, 102, 1, 0x3000)
}

func TestMESIViolations(t *testing.T) {
	c := New(8)

	// Legal: one Modified holder, nobody else.
	c.CheckMESI(10, 0x1000, []NodeState{
		{L1: line(cache.Modified), L2: line(cache.Modified)},
		{},
	})
	// Legal: two Shared readers.
	c.CheckMESI(11, 0x1000, []NodeState{
		{L1: line(cache.Shared), L2: line(cache.Shared)},
		{L2: line(cache.Shared)},
	})
	// Legal: silent L1 E->M upgrade over an Exclusive L2.
	c.CheckMESI(12, 0x1000, []NodeState{
		{L1: line(cache.Modified), L2: line(cache.Exclusive)},
	})

	mustViolate(t, "mesi", func() {
		New(8).CheckMESI(20, 0x1000, []NodeState{
			{L2: line(cache.Modified)},
			{L2: line(cache.Modified)}, // two writers
		})
	})
	mustViolate(t, "mesi", func() {
		New(8).CheckMESI(21, 0x1000, []NodeState{
			{L2: line(cache.Exclusive)},
			{L2: line(cache.Shared)}, // reader alongside an exclusive holder
		})
	})
	mustViolate(t, "mesi", func() {
		New(8).CheckMESI(22, 0x1000, []NodeState{
			{L1: line(cache.Modified), L2: line(cache.Shared)}, // dirty L1 over shared L2
		})
	})
	mustViolate(t, "inclusion", func() {
		New(8).CheckMESI(23, 0x1000, []NodeState{
			{L1: line(cache.Shared)}, // L1 copy with no L2 backing
		})
	})
}

// TestMESIReportsEveryBrokenRule: a line that breaks two rules in two
// nodes fails once, naming both breaks and every node's state, with the
// first rule in evaluation order as the Violation's Rule.
func TestMESIReportsEveryBrokenRule(t *testing.T) {
	var v *Violation
	func() {
		defer func() { v, _ = recover().(*Violation) }()
		New(8).CheckMESI(30, 0x1000, []NodeState{
			{L1: line(cache.Modified), L2: line(cache.Shared)}, // dirty L1 over shared L2
			{},
			{L1: line(cache.Shared)}, // L1 copy with no L2 backing
		})
	}()
	if v == nil {
		t.Fatal("expected a violation, got none")
	}
	if v.Rule != "mesi" {
		t.Errorf("rule %q, want mesi (node 0's break comes first)", v.Rule)
	}
	for _, want := range []string{
		"node 0 holds line 0x1000 Modified in L1 over a Shared L2 copy at cycle 30",
		"node 2 holds line 0x1000 in L1 (S) but not in its L2 at cycle 30",
		"0 M/S, 1 -/-, 2 S/-",
	} {
		if !strings.Contains(v.Msg, want) {
			t.Errorf("report lacks %q:\n%s", want, v.Msg)
		}
	}
}

func TestDirectoryViolations(t *testing.T) {
	c := New(8)
	c.CheckDirectory(10, 0x2000, 0b0101, 0b0101, true) // ok
	c.CheckDirectory(11, 0x2000, 0, 0, false)          // ok: untracked, absent

	mustViolate(t, "directory", func() {
		New(8).CheckDirectory(20, 0x2000, 0b0101, 0b0001, true) // stale sharer bit
	})
	mustViolate(t, "directory", func() {
		New(8).CheckDirectory(21, 0x2000, 0b0010, 0b0010, false) // sharers but no L2 line
	})
}

func TestDrainViolation(t *testing.T) {
	New(8).CheckDrain(1000, 0) // ok
	mustViolate(t, "mshr-drain", func() {
		New(8).CheckDrain(1000, 3)
	})
}

func TestViolationCarriesTrail(t *testing.T) {
	c := New(4)
	for i := uint64(0); i < 6; i++ { // overfill: ring keeps the last 4
		c.Emit(obsv.Event{Cycle: i, Kind: obsv.EvLoad, Addr: uint32(0x100 * i)})
	}
	defer func() {
		r := recover()
		v, ok := r.(*Violation)
		if !ok {
			t.Fatalf("panic value %T, want *Violation", r)
		}
		if len(v.Trail) != 4 {
			t.Fatalf("trail has %d events, want the ring's 4", len(v.Trail))
		}
		if v.Trail[0].Cycle != 2 {
			t.Fatalf("trail starts at cycle %d, want 2 (oldest kept)", v.Trail[0].Cycle)
		}
		msg := v.Error()
		if !strings.Contains(msg, "mshr-drain") || !strings.Contains(msg, "last 4 events") {
			t.Fatalf("Error() = %q, want rule and trail header", msg)
		}
	}()
	c.CheckDrain(1000, 1)
}

func TestChecksCounter(t *testing.T) {
	c := New(8)
	c.CheckAccessTime(1, 2, 0, 0)
	c.CheckDrain(10, 0)
	if got := c.Checks(); got != 2 {
		t.Fatalf("Checks() = %d, want 2", got)
	}
}
