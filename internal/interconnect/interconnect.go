// Package interconnect models the contended, occupancy-limited resources
// of the three architectures: cache banks behind crossbars, the L2 port,
// the memory controller, and the shared system bus. Each is a pipelined
// unit that can accept one request per free slot; a request occupies the
// unit for its occupancy and later requests queue behind it.
package interconnect

import (
	"cmpsim/internal/obsv"
)

// Resource is a single pipelined unit with busy-until semantics. The
// zero value (plus a Name) is an idle resource.
type Resource struct {
	Name      string
	busyUntil uint64

	acquires   uint64
	waitCycles uint64 // cycles requests spent queued behind earlier ones
	busyCycles uint64 // cycles the unit was occupied

	trace obsv.Tracer
	id    obsv.ResID
	bank  uint32
}

// Instrument attaches a tracer; every grant then emits an EvGrant event
// identifying the resource as (id, bank). A nil tracer disables emission
// (the fast path is the nil check in Acquire).
func (r *Resource) Instrument(tr obsv.Tracer, id obsv.ResID, bank uint32) {
	r.trace, r.id, r.bank = tr, id, bank
}

// Acquire reserves the resource at the earliest slot at or after now for
// occ cycles and returns the slot's start cycle. occ of 0 is allowed for
// pure arbitration points.
func (r *Resource) Acquire(now, occ uint64) uint64 {
	start := now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	wait := start - now // start >= now by construction
	r.busyUntil = start + occ
	r.acquires++
	r.waitCycles += wait
	r.busyCycles += occ
	if r.trace != nil {
		r.trace.Emit(obsv.Event{
			Cycle: start,
			Addr:  r.bank,
			Arg:   uint32(occ),
			Arg2:  uint32(wait),
			Kind:  obsv.EvGrant,
			CPU:   -1,
			Res:   r.id,
		})
	}
	return start
}

// FreeAt returns the earliest cycle at or after now at which the
// resource could start a new request, without reserving it.
func (r *Resource) FreeAt(now uint64) uint64 {
	if r.busyUntil > now {
		return r.busyUntil
	}
	return now
}

// ResourceStats is a snapshot of a resource's contention counters.
type ResourceStats struct {
	Name       string
	Acquires   uint64
	WaitCycles uint64
	BusyCycles uint64
}

// Stats returns the resource's counters.
func (r *Resource) Stats() ResourceStats {
	return ResourceStats{Name: r.Name, Acquires: r.acquires, WaitCycles: r.waitCycles, BusyCycles: r.busyCycles}
}

// Banks is a set of identically-configured parallel resources (the banks
// of a banked cache behind a crossbar). Bank selection is done by the
// caller (cache.BankOf), keeping address interleaving in one place.
type Banks []Resource

// NewBanks creates n banks named name[0..n).
func NewBanks(name string, n int) Banks {
	b := make(Banks, n)
	for i := range b {
		b[i].Name = name
	}
	return b
}

// Acquire reserves bank i.
func (b Banks) Acquire(i uint32, now, occ uint64) uint64 {
	return b[i].Acquire(now, occ)
}

// Instrument attaches a tracer to every bank, numbering them 0..n.
func (b Banks) Instrument(tr obsv.Tracer, id obsv.ResID) {
	for i := range b {
		b[i].Instrument(tr, id, uint32(i))
	}
}

// Stats sums the counters of all banks.
func (b Banks) Stats() ResourceStats {
	var s ResourceStats
	for i := range b {
		st := b[i].Stats()
		s.Name = st.Name
		s.Acquires += st.Acquires
		s.WaitCycles += st.WaitCycles
		s.BusyCycles += st.BusyCycles
	}
	return s
}
