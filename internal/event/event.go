// Package event provides the cycle-based discrete-event calendar used by
// the memory system and the top-level simulator loop. Events scheduled
// for the same cycle fire in FIFO order, after the one front-of-cycle
// item ScheduleFirst may place there, which keeps the whole simulation
// deterministic.
package event

// Func is an event callback; it receives the cycle at which it fires.
type Func func(cycle uint64)

type item struct {
	cycle uint64
	seq   uint64
	fn    Func
}

// Queue is a calendar of future events. The zero value is ready to use.
//
// The heap is maintained with typed sift-up/sift-down rather than
// container/heap: heap.Push boxes every item into an interface value,
// which costs one allocation per Schedule on what is a steady-state
// scheduler path (the guest kernel re-arms a preemption timer from
// inside every timer event). With the typed form the backing array is
// reused once it reaches its high-water mark, so Schedule/RunUntil run
// at 0 allocs/op (pinned by TestScheduleSteadyStateZeroAllocs).
type Queue struct {
	h   []item
	seq uint64
}

// less orders the heap by cycle, then FIFO by schedule order; a
// ScheduleFirst item has seq 0 and so leads its cycle.
func (q *Queue) less(i, j int) bool {
	if q.h[i].cycle != q.h[j].cycle {
		return q.h[i].cycle < q.h[j].cycle
	}
	return q.h[i].seq < q.h[j].seq
}

// Schedule registers fn to fire at the given cycle.
func (q *Queue) Schedule(cycle uint64, fn Func) {
	q.seq++
	q.push(item{cycle: cycle, seq: q.seq, fn: fn})
}

// ScheduleFirst registers fn to fire at the given cycle ahead of every
// event Schedule places there, whether scheduled before or after it. It
// is for one front-of-cycle observer (the interval sampler, which reads
// the state the previous cycle left); the order among several
// ScheduleFirst items at one cycle is unspecified.
func (q *Queue) ScheduleFirst(cycle uint64, fn Func) {
	q.push(item{cycle: cycle, fn: fn})
}

func (q *Queue) push(it item) {
	// amortized into the reused backing array; 0 allocs/op at steady state
	q.h = append(q.h, it)
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes and returns the earliest item. The vacated tail slot is
// zeroed so the heap does not pin the fired callback for the GC.
func (q *Queue) pop() item {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = item{}
	q.h = q.h[:n]
	for i := 0; ; {
		smallest := i
		if l := 2*i + 1; l < n && q.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
	return top
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// NextCycle returns the cycle of the earliest pending event. The
// quiescence-skipping scheduler uses it as one of the bounds the cycle
// loop may not jump over.
func (q *Queue) NextCycle() (uint64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].cycle, true
}

// RunUntil fires, in order, every event scheduled at or before cycle.
// Events may schedule further events; those fire too if they fall within
// the bound.
func (q *Queue) RunUntil(cycle uint64) {
	for len(q.h) > 0 && q.h[0].cycle <= cycle {
		it := q.pop()
		it.fn(it.cycle)
	}
}
