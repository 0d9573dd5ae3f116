package event

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestFIFOWithinCycle(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		q.Schedule(10, func(uint64) { got = append(got, i) })
	}
	q.RunUntil(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v, want FIFO", got)
		}
	}
}

// TestScheduleFirstLeadsItsCycle: a ScheduleFirst item fires before
// every item Schedule put at its cycle, scheduled before or after it,
// and the others keep their FIFO order; earlier cycles still go first.
func TestScheduleFirstLeadsItsCycle(t *testing.T) {
	var q Queue
	var got []string
	at := func(name string) Func { return func(uint64) { got = append(got, name) } }
	q.Schedule(10, at("a"))
	q.Schedule(9, at("early"))
	q.Schedule(10, at("b"))
	q.ScheduleFirst(10, at("first"))
	q.Schedule(10, at("c"))
	q.Schedule(11, at("late"))
	q.RunUntil(11)
	if want := []string{"early", "first", "a", "b", "c", "late"}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestRunUntilBound(t *testing.T) {
	var q Queue
	fired := map[uint64]bool{}
	for _, c := range []uint64{5, 10, 15} {
		c := c
		q.Schedule(c, func(at uint64) {
			if at != c {
				t.Errorf("fired at %d, scheduled %d", at, c)
			}
			fired[c] = true
		})
	}
	q.RunUntil(10)
	if !fired[5] || !fired[10] || fired[15] {
		t.Errorf("fired = %v", fired)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d, want 1", q.Len())
	}
	if next, ok := q.NextCycle(); !ok || next != 15 {
		t.Errorf("NextCycle = %d,%v", next, ok)
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var q Queue
	var trace []uint64
	q.Schedule(1, func(at uint64) {
		trace = append(trace, at)
		q.Schedule(2, func(at2 uint64) { trace = append(trace, at2) })
	})
	q.RunUntil(3)
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 2 {
		t.Errorf("trace = %v", trace)
	}
}

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if _, ok := q.NextCycle(); ok {
		t.Error("NextCycle on empty queue should report !ok")
	}
	q.RunUntil(100) // must not panic
}

func TestQuickFiresInCycleOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		var cycles []uint64
		var fired []uint64
		n := 1 + r.Intn(50)
		for i := 0; i < n; i++ {
			c := uint64(r.Intn(100))
			cycles = append(cycles, c)
			q.Schedule(c, func(at uint64) { fired = append(fired, at) })
		}
		q.RunUntil(1000)
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
		if len(fired) != len(cycles) {
			return false
		}
		for i := range fired {
			if fired[i] != cycles[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNextCycleTracksHead pins NextCycle across schedules and drains:
// it must always report the earliest pending cycle, including after
// out-of-order scheduling and partial drains.
func TestNextCycleTracksHead(t *testing.T) {
	var q Queue
	nop := Func(func(uint64) {})
	q.Schedule(30, nop)
	if c, ok := q.NextCycle(); !ok || c != 30 {
		t.Fatalf("NextCycle = %d,%v, want 30,true", c, ok)
	}
	q.Schedule(10, nop) // earlier event must take the head
	if c, ok := q.NextCycle(); !ok || c != 10 {
		t.Fatalf("NextCycle = %d,%v, want 10,true", c, ok)
	}
	q.Schedule(20, nop)
	q.RunUntil(10)
	if c, ok := q.NextCycle(); !ok || c != 20 {
		t.Fatalf("NextCycle after drain = %d,%v, want 20,true", c, ok)
	}
	q.RunUntil(30)
	if _, ok := q.NextCycle(); ok {
		t.Fatal("NextCycle on drained queue should report !ok")
	}
}

// TestNextCycleSeesRescheduledEvents pins the property the
// quiescence-skipping scheduler depends on: after an event at cycle N
// schedules a follow-up at N+k, NextCycle immediately reports N+k, so
// the cycle loop can never jump over a chain of self-rescheduling
// events (the guest kernel's preemption timers are exactly this shape).
func TestNextCycleSeesRescheduledEvents(t *testing.T) {
	var q Queue
	var fired []uint64
	var tick Func
	tick = func(at uint64) {
		fired = append(fired, at)
		if at < 50 {
			q.Schedule(at+10, tick)
		}
	}
	q.Schedule(10, tick)
	for cyc := uint64(0); cyc <= 60; cyc++ {
		q.RunUntil(cyc)
		if next, ok := q.NextCycle(); ok && next <= cyc {
			t.Fatalf("NextCycle = %d at cycle %d: pending past event", next, cyc)
		}
	}
	want := []uint64{10, 20, 30, 40, 50}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestScheduleSteadyStateZeroAllocs is the satellite acceptance gate
// for the typed heap: once the backing array has reached its high-water
// mark, the Schedule → RunUntil steady state performs no allocations
// (container/heap's Push boxed every item into an interface value),
// including a front-of-cycle event that re-arms itself through
// ScheduleFirst, the interval sampler's shape.
func TestScheduleSteadyStateZeroAllocs(t *testing.T) {
	var q Queue
	nop := Func(func(uint64) {})
	var rearm Func
	rearm = func(at uint64) { q.ScheduleFirst(at+2, rearm) }
	// Warm the backing array past any size this loop reaches.
	for i := 0; i < 64; i++ {
		q.Schedule(uint64(i), nop)
	}
	q.RunUntil(64)
	cycle := uint64(100)
	q.ScheduleFirst(cycle, rearm)
	allocs := testing.AllocsPerRun(1000, func() {
		q.Schedule(cycle, nop)
		q.Schedule(cycle+3, nop)
		q.RunUntil(cycle + 1)
		q.RunUntil(cycle + 3)
		cycle += 4
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule/RunUntil = %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkQueueScheduleRun measures the steady-state scheduler path:
// one timer-style reschedule plus drain per op, the pattern the guest
// kernel's preemption timers generate. Must report 0 allocs/op.
func BenchmarkQueueScheduleRun(b *testing.B) {
	var q Queue
	nop := Func(func(uint64) {})
	for i := 0; i < 8; i++ {
		q.Schedule(uint64(i), nop)
	}
	q.RunUntil(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uint64(i)
		q.Schedule(c+4, nop)
		q.Schedule(c+2, nop)
		q.RunUntil(c)
	}
}
