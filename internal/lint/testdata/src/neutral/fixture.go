// Package fixture seeds observability-neutrality violations: values
// produced by the (fixture) obs surface steering simulator state and
// control flow, alongside the approved plumbing shapes that must stay
// silent.
package fixture

import obsv "cmpsim/lintfixture/internal/obsv"

type unit struct {
	mets  *obsv.Metrics
	cyc   uint64
	count uint64
	table []uint64
}

func (u *unit) tickAssign(now uint64) {
	if u.mets != nil {
		u.cyc = u.mets.NextDue() // want "assigned into simulator state"
	}
}

func (u *unit) tickSteer(now uint64) {
	if u.mets.Count() > 4 { // want "steers simulator control flow"
		u.count++
	}
}

func (u *unit) tickIndex(now uint64) {
	u.table[u.mets.Count()] = now // want "indexes simulator state"
}

func (u *unit) report() uint64 {
	return u.mets.Count() // want "returned from a simulator function"
}

func (u *unit) fieldRead(p *obsv.Probe) {
	u.count = p.Cycle // want "field Probe.Cycle"
}

func (u *unit) pkgVar(now uint64) {
	u.count = obsv.Dropped // want "observability package variable"
}

// sample steers control flow even though its body only observes: an
// observer that must run on a schedule is an event, not a polled
// condition.
func (u *unit) sample(now uint64) {
	if u.mets.Due(now) { // want "steers simulator control flow"
		u.mets.Record(now)
	}
}

// buildProbe only moves data INTO obs state: reading an obs field to
// append back into the same obs-owned slice is plumbing.
func (u *unit) buildProbe(p *obsv.Probe) {
	p.Cycle = u.cyc
	p.Insts = append(p.Insts, u.count) // ok: append into obs-owned state
}

// gate is presence-plumbing: comparing the attachment against nil (not
// its data) is how the hot path stays allocation-free.
func (u *unit) gate(now uint64) {
	if u.mets != nil {
		u.mets.Record(now)
	}
}

func (u *unit) justified(now uint64) {
	//simlint:allow neutral — fixture: suppression must silence the next line
	u.cyc = u.mets.NextDue()
}
