// Package obsv is the simulator's observability layer: cycle-accurate
// event tracing and interval metrics, designed to cost nothing when
// disabled. Every timing-path package (memsys, interconnect, cache,
// coherence, cpu/mxs) carries an optional Tracer; the nil fast path is a
// single pointer comparison and zero allocations, so instrumented code
// can stay on the hot path of every memory reference.
//
// The layer has three parts:
//
//   - Event / Tracer: a fixed-size, allocation-free event record and the
//     interface instrumented components emit into. Ring is the standard
//     implementation (a bounded in-memory ring buffer).
//   - Sinks: WriteJSONL (one JSON object per event, the cmd/tracestats
//     input format) and WriteChromeTrace (the Chrome trace-event format,
//     loadable in chrome://tracing and Perfetto, one track per CPU plus
//     one per shared resource).
//   - Metrics: an interval sampler producing a time-series of per-CPU
//     IPC, miss rates, resource utilization and MSHR occupancy, plus
//     log2-bucket latency histograms for data-miss service time.
package obsv

// EventKind discriminates trace events. The Event field comments below
// describe how each kind uses the generic fields.
type EventKind uint8

const (
	EvNone EventKind = iota

	// Memory-system data path (per reference, emitted on completion).
	EvLoad   // data load: CPU, Addr, Level, Arg=load-to-use latency
	EvStore  // data store accepted: CPU, Addr, Level, Arg=CPU-visible latency
	EvIFetch // instruction line fetch: CPU, Addr, Level, Arg=latency

	// Contended resources (interconnect).
	EvGrant // resource grant: Res, Addr=bank index, Cycle=grant start, Arg=occupancy, Arg2=wait cycles

	// Non-blocking cache bookkeeping (MSHRs, write buffers).
	EvMSHRAlloc  // outstanding miss allocated: CPU, Addr=line, Arg=fill latency
	EvMSHRRetire // fill completed: CPU, Addr=line (Cycle is the completion cycle)
	EvMSHRFull   // structural refusal, all MSHRs busy: CPU
	EvWBufFull   // structural refusal, write buffer full: CPU

	// Coherence.
	EvInval     // invalidations sent for a write: CPU=writer, Addr=line, Arg=lines invalidated
	EvInclEvict // inclusion eviction (lower level replaced the line): Addr=line, Arg=L1 copies removed
	EvC2C       // cache-to-cache supply: CPU=requester, Addr=line
	EvUpgrade   // bus upgrade (invalidate-only): CPU=writer, Addr=line, Arg=lines invalidated

	// Detailed CPU model (MXS).
	EvFlush      // pipeline flush (trap/interrupt): CPU, Arg=instructions squashed
	EvMispredict // branch mispredict: CPU, Addr=branch PC, Arg=instructions squashed
	EvROBFull    // dispatch blocked, window full: CPU

	NumEventKinds
)

var kindNames = [NumEventKinds]string{
	EvNone:       "none",
	EvLoad:       "load",
	EvStore:      "store",
	EvIFetch:     "ifetch",
	EvGrant:      "grant",
	EvMSHRAlloc:  "mshr-alloc",
	EvMSHRRetire: "mshr-retire",
	EvMSHRFull:   "mshr-full",
	EvWBufFull:   "wbuf-full",
	EvInval:      "inval",
	EvInclEvict:  "incl-evict",
	EvC2C:        "c2c",
	EvUpgrade:    "upgrade",
	EvFlush:      "flush",
	EvMispredict: "mispredict",
	EvROBFull:    "rob-full",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// KindFromString is the inverse of EventKind.String (for parsing JSONL
// traces back in); unknown names map to EvNone.
func KindFromString(s string) EventKind {
	for k, n := range kindNames {
		if n == s {
			return EventKind(k)
		}
	}
	return EvNone
}

// ResID identifies a contended shared resource. The set is fixed by the
// three architecture compositions; the bank index (for banked resources)
// or the owning CPU (for per-CPU ports) travels in Event.Addr.
type ResID uint8

const (
	ResNone   ResID = iota
	ResL1Bank       // shared-L1 crossbar cache banks
	ResL2Bank       // shared-L2 crossbar cache banks
	ResL2Port       // uniprocessor-style L2 port (shared-L1 arch, or per-CPU in shared-mem)
	ResMem          // memory controller
	ResBus          // snoopy system bus

	NumResIDs
)

var resNames = [NumResIDs]string{
	ResNone:   "",
	ResL1Bank: "l1-bank",
	ResL2Bank: "l2-bank",
	ResL2Port: "l2-port",
	ResMem:    "memory",
	ResBus:    "bus",
}

func (r ResID) String() string {
	if int(r) < len(resNames) {
		return resNames[r]
	}
	return "?"
}

// ResFromString is the inverse of ResID.String; unknown names map to
// ResNone.
func ResFromString(s string) ResID {
	if s == "" {
		return ResNone
	}
	for r := ResID(1); r < NumResIDs; r++ {
		if resNames[r] == s {
			return r
		}
	}
	return ResNone
}

// LevelNames mirrors the memsys.Level constants (obsv cannot import
// memsys — it sits below every timing package).
var LevelNames = [...]string{"L1", "L2", "Mem", "C2C"}

// LevelName returns the hierarchy-level name for Event.Level.
func LevelName(l uint8) string {
	if int(l) < len(LevelNames) {
		return LevelNames[l]
	}
	return "?"
}

// Event is one trace record. It is a flat value type — emitting one
// never allocates. Field use is kind-specific; see the EventKind
// constants.
type Event struct {
	Cycle uint64    // simulation cycle the event is attributed to
	Addr  uint32    // address / line / bank index / PC (kind-specific)
	Arg   uint32    // primary magnitude: latency, occupancy, count
	Arg2  uint32    // secondary magnitude: wait cycles
	Kind  EventKind //
	CPU   int8      // requesting CPU, or -1 when not CPU-attributed
	Res   ResID     // shared resource, or ResNone
	Level uint8     // memory-hierarchy level (memsys.Level) for memory events
}

// Tracer receives trace events. Instrumented components hold a Tracer
// and guard every emission with a nil check, which is the entire cost of
// disabled tracing. Implementations must tolerate events arriving out of
// cycle order (lazily-reaped MSHR retirements are timestamped with their
// completion cycle but emitted later); sinks sort by cycle.
type Tracer interface {
	Emit(Event)
}

// Tee fans one event stream out to several tracers. Nil entries are
// dropped; a tee of fewer than two live tracers collapses to the single
// tracer (or nil), keeping the fast path a plain nil check.
func Tee(tracers ...Tracer) Tracer {
	var live []Tracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeTracer(live)
}

type teeTracer []Tracer

func (t teeTracer) Emit(ev Event) {
	for _, tr := range t {
		tr.Emit(ev)
	}
}

// Note: this package deliberately holds no mutable package-level
// state. Per-run tallies (e.g. the stall-accounting violation recorded
// by stats.FromRun) live on per-run values, so back-to-back runs in
// one process cannot bleed into each other and the parallel runner
// (internal/runner) can execute runs concurrently without races.
