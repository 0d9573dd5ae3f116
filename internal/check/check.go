// Package check is the simulator's runtime sanitizer: an optional
// invariant layer the memory systems call into on every transaction
// when -sanitize is set. Where package lint proves properties of the
// source, check validates the actual simulated state — MESI legality,
// single-writer/multiple-reader, directory/L1 agreement, inclusion,
// machine-wide time monotonicity and MSHR leak-freedom at drain.
//
// The Checker also implements obsv.Tracer: teed into Config.Trace it
// keeps the last N events in a ring, and a violation panics with a
// *Violation carrying that reconstructed event trail, so the failure
// report shows what the machine was doing when the invariant broke.
//
// The sanitizer is opt-in because it probes every cache in the system
// on every access; enable it for correctness runs, never for timing
// measurements.
package check

import (
	"fmt"
	"strings"

	"cmpsim/internal/cache"
	"cmpsim/internal/obsv"
)

// DrainSlack is how many cycles past the final CPU halt an MSHR entry
// may legitimately complete (a store buffered just before the halt can
// still be in flight). Entries outstanding even at final+DrainSlack
// are leaked, not late.
const DrainSlack = 1 << 20

// Violation is the sanitizer's failure report. It is delivered by
// panic: an invariant break means simulated state is corrupt and no
// later statistic can be trusted.
type Violation struct {
	Rule  string       // which invariant broke ("mesi", "inclusion", ...)
	Msg   string       // what was observed
	Trail []obsv.Event // last events before the break, oldest first
}

// Error implements error, rendering the trail one event per line.
func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sanitizer: %s: %s", v.Rule, v.Msg)
	if len(v.Trail) > 0 {
		fmt.Fprintf(&b, "\nlast %d events:", len(v.Trail))
		for _, e := range v.Trail {
			fmt.Fprintf(&b, "\n  cycle=%d kind=%d cpu=%d addr=%#x arg=%d", e.Cycle, e.Kind, e.CPU, e.Addr, e.Arg)
		}
	}
	return b.String()
}

// NodeState is one node's view of a line for the MESI check: the L1 and
// L2 lines holding it, nil where absent. For the shared-L1 architecture
// (one cache, no coherence) the MESI check does not apply.
type NodeState struct {
	L1, L2 *cache.Line
}

// Checker validates transactions. The zero value is not usable; use New.
type Checker struct {
	trail   *obsv.Ring
	lastNow uint64 // the machine's last access time
	lastCPU int    // the CPU that made that access
	checks  uint64
}

// New returns a checker keeping the last trailLen events for violation
// reports.
func New(trailLen int) *Checker {
	return &Checker{trail: obsv.NewRing(trailLen)}
}

// Emit implements obsv.Tracer: the checker records the event stream so
// a violation can show the transactions leading up to it.
func (c *Checker) Emit(e obsv.Event) { c.trail.Emit(e) }

// Checks returns how many invariant evaluations ran (so a clean
// sanitized run can prove it actually checked something).
func (c *Checker) Checks() uint64 { return c.checks }

func (c *Checker) fail(rule, format string, args ...any) {
	panic(&Violation{Rule: rule, Msg: fmt.Sprintf(format, args...), Trail: c.trail.Events()})
}

// CheckAccessTime validates one completed reference: the completion
// cannot precede the request, and request times must be nondecreasing
// across the whole machine (the cycle loop makes every CPU's references
// in cycle order, so no CPU's reference reaches a shared level before
// an earlier one of another CPU).
func (c *Checker) CheckAccessTime(now, done uint64, cpu int, addr uint32) {
	c.checks++
	if done < now {
		c.fail("cycle-monotonic", "cpu %d access of %#x at cycle %d completed at %d, before it was issued", cpu, addr, now, done)
	}
	if now < c.lastNow {
		c.fail("cycle-monotonic", "cpu %d issued an access at cycle %d after cpu %d's at cycle %d", cpu, now, c.lastCPU, c.lastNow)
	}
	c.lastNow, c.lastCPU = now, cpu
}

// CheckMESI validates the coherence protocol's global state for one
// line across all nodes (the shared-memory architecture's snooped
// private hierarchies):
//
//   - single writer: at most one node holds the line Exclusive or
//     Modified, and then no other node holds any copy;
//   - inclusion: an L1 copy implies an L2 copy in the same node;
//   - write-back consistency: L1 Modified over L2 Shared is illegal
//     (the silent E→M upgrade makes L1-M over L2-E legal).
//
// Every rule is evaluated over every node before it fails, so one
// Violation names all broken rules and every node's (L1, L2) state; its
// Rule is the first broken rule, node by node in the order above.
func (c *Checker) CheckMESI(now uint64, lineAddr uint32, nodes []NodeState) {
	c.checks++
	var rule string
	var broken []string
	breaks := func(r, format string, args ...any) {
		if rule == "" {
			rule = r
		}
		broken = append(broken, fmt.Sprintf(format, args...))
	}
	owner := -1
	copies := 0
	for i, n := range nodes {
		if n.L1 == nil && n.L2 == nil {
			continue
		}
		copies++
		if stateOf(n.L1) >= cache.Exclusive || stateOf(n.L2) >= cache.Exclusive {
			if owner >= 0 {
				breaks("mesi", "line %#x at cycle %d has two exclusive/modified holders: nodes %d and %d", lineAddr, now, owner, i)
			} else {
				owner = i
			}
		}
		if n.L1 != nil && n.L2 == nil {
			breaks("inclusion", "node %d holds line %#x in L1 (%v) but not in its L2 at cycle %d", i, lineAddr, n.L1.State, now)
		}
		if n.L1 != nil && n.L2 != nil && n.L1.State == cache.Modified && n.L2.State == cache.Shared {
			breaks("mesi", "node %d holds line %#x Modified in L1 over a Shared L2 copy at cycle %d", i, lineAddr, now)
		}
	}
	if owner >= 0 && copies > 1 {
		breaks("mesi", "line %#x at cycle %d is exclusive/modified in node %d but %d nodes hold copies", lineAddr, now, owner, copies)
	}
	if rule == "" {
		return
	}
	held := make([]string, len(nodes))
	for i, n := range nodes {
		held[i] = fmt.Sprintf("%d %s/%s", i, heldState(n.L1), heldState(n.L2))
	}
	c.fail(rule, "%s; node states (L1/L2, - absent): %s", strings.Join(broken, "; "), strings.Join(held, ", "))
}

// heldState renders a line's state for a violation report, "-" where
// the cache holds no line.
func heldState(ln *cache.Line) string {
	if ln == nil {
		return "-"
	}
	return ln.State.String()
}

func stateOf(ln *cache.Line) cache.State {
	if ln == nil {
		return cache.Invalid
	}
	return ln.State
}

// CheckDirectory validates the shared-L2 architecture's write-through
// directory for one shared-classified line: the sharer bitmask must
// exactly match which L1s hold the line, and a nonzero mask implies
// the shared L2 still holds the line (inclusion — an L2 eviction must
// have swept every sharer).
func (c *Checker) CheckDirectory(now uint64, lineAddr uint32, sharers, l1Present uint16, l2Present bool) {
	c.checks++
	if sharers != l1Present {
		c.fail("directory", "line %#x at cycle %d: directory sharers %04b != L1 presence %04b", lineAddr, now, sharers, l1Present)
	}
	if sharers != 0 && !l2Present {
		c.fail("directory", "line %#x at cycle %d has sharers %04b but is absent from the shared L2 (inclusion)", lineAddr, now, sharers)
	}
}

// CheckDrain validates MSHR leak-freedom after the last CPU halts:
// outstanding is the in-flight miss count probed at final+DrainSlack,
// where every legitimate fill has long completed.
func (c *Checker) CheckDrain(final uint64, outstanding int) {
	c.checks++
	if outstanding != 0 {
		c.fail("mshr-drain", "%d MSHR entries still outstanding %d cycles after the run ended at cycle %d (leak)", outstanding, DrainSlack, final)
	}
}
