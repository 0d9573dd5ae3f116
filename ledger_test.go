package cmpsim_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/memsys"
	"cmpsim/internal/runner"
	"cmpsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.json (refused when results move at an unchanged runner.SimVersion)")

const ledgerPath = "testdata/ledger.json"

// ledgerRow is one simulation's outcome. The result columns, Row to
// MemReport, are in the digest; Skipped and the work columns count the
// host work the run took and are not.
type ledgerRow struct {
	Row                  string
	Cycles, Instructions uint64
	PerCPU               []cpu.StallStats
	MemReport            string // short SHA-256 of the JSON-encoded memsys.Report
	Skipped              uint64 // cycles the loop jumped instead of ticking
	ledgerWork
}

// ledgerWork counts the calls the cycle loop makes into the CPU models
// (Core.Tick, Core.NextWork) and the CPU models make into the memory
// system (memsys.System Access, refused Access, IFetch).
type ledgerWork struct {
	Ticks, NextWork         uint64
	Access, Refused, IFetch uint64
}

type ledgerFile struct {
	SimVersion int         `json:"sim_version"`
	Digest     string      `json:"digest"`
	Rows       []ledgerRow `json:"rows"`
}

func (r ledgerRow) String() string {
	line, _ := json.Marshal(r)
	return string(line)
}

// ledgerDigest is a SHA-256 over the result columns of rows, in order:
// one JSON line per row with a zero Skipped and no work columns, the
// line every committed digest was taken over.
func ledgerDigest(rows []ledgerRow) string {
	h := sha256.New()
	for _, r := range rows {
		line, _ := json.Marshal(struct {
			Row                  string
			Cycles, Instructions uint64
			PerCPU               []cpu.StallStats
			MemReport            string
			Skipped              uint64
		}{r.Row, r.Cycles, r.Instructions, r.PerCPU, r.MemReport, 0})
		fmt.Fprintf(h, "%s\n", line)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// skipFloor is the least share of its cycles a floored row must jump.
// On the memory-bound Mipsy rows nearly every cycle has each CPU
// mid-miss, so a loop that ticks through them has lost the skip.
const skipFloor = 0.95

// decideLedger says whether rows got, computed at simulator version
// version, "pass", "fail" or "write" the committed file, and why: any
// difference fails, unless -update writes it; moved results need a bump.
// A floored row that skips less than skipFloor of its cycles fails
// whatever the file holds.
func decideLedger(file ledgerFile, got []ledgerRow, floored map[string]bool, version int, update bool) (string, []string) {
	var low []string
	for _, g := range got {
		if floored[g.Row] && float64(g.Skipped) < skipFloor*float64(g.Cycles) {
			low = append(low, fmt.Sprintf("%s: skipped %d of %d cycles (%.3f), below the %.2f floor",
				g.Row, g.Skipped, g.Cycles, float64(g.Skipped)/float64(g.Cycles), skipFloor))
		}
	}
	var why []string
	want := map[string]ledgerRow{}
	for _, r := range file.Rows {
		want[r.Row] = r
	}
	for _, g := range got {
		if w := want[g.Row]; g.String() != w.String() {
			why = append(why, fmt.Sprintf("%s\n got: %v\nwant: %v", g.Row, g, w))
		}
		delete(want, g.Row)
	}
	for name := range want {
		why = append(why, fmt.Sprintf("%s: in %s but no longer run", name, ledgerPath))
	}
	if d := ledgerDigest(file.Rows); d != file.Digest {
		why = append(why, fmt.Sprintf("%s: digest %s is not its rows' %s (edited by hand?)", ledgerPath, file.Digest, d))
	}
	if file.SimVersion != version {
		why = append(why, fmt.Sprintf("%s: sim_version %d, runner.SimVersion %d", ledgerPath, file.SimVersion, version))
	}
	switch {
	case low != nil:
		return "fail", append(low, why...)
	case why == nil:
		return "pass", nil
	case ledgerDigest(got) != file.Digest && file.SimVersion == version:
		return "fail", append(why, fmt.Sprintf("results moved at sim_version %d: bump runner.SimVersion to %d, then rerun -update", version, version+1))
	case !update:
		return "fail", append(why, "rerun with -update to re-record")
	}
	return "write", why
}

// ledgerJobs lists the rows: every benchfig figure row, the quick cells,
// quick pmake under MXS on the memory-bound point and the ablation's
// 4-way L2 (its direct-mapped row is quick/mp3d/shared-l1/mipsy). The
// rows of the memory-bound Mipsy figures are floored.
func ledgerJobs() (jobs []runner.Job, floored map[string]bool) {
	floored = map[string]bool{}
	add := func(name string, model core.CPUModel, cfg memsys.Config, mk func() (workload.Workload, error), arches ...core.Arch) {
		for _, a := range arches {
			jobs = append(jobs, runner.Job{Workload: mk, Arch: a, Model: model, Cfg: cfg, Tag: fmt.Sprintf("%s/%s/%s", name, a, model)})
		}
	}
	quick := func(app string) func() (workload.Workload, error) {
		return func() (workload.Workload, error) { return workload.NewQuick(app) }
	}
	for _, f := range benchfig.Figures() {
		add(f.Name, f.Model, f.Config(), func() (workload.Workload, error) { return f.New(), nil }, core.Arches()...)
		if f.MemBound() && f.Model == core.ModelMipsy {
			for _, j := range jobs[len(jobs)-len(core.Arches()):] {
				floored[j.Tag] = true
			}
		}
	}
	for _, app := range []string{"eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "pmake"} {
		add("quick/"+app, core.ModelMipsy, memsys.DefaultConfig(), quick(app), core.Arches()...)
		add("quick/"+app, core.ModelMXS, memsys.DefaultConfig(), quick(app), core.Arches()...)
	}
	add("quick-mxs-membound/pmake", core.ModelMXS, benchfig.MXSMemBoundConfig(), quick("pmake"), core.Arches()...)
	ab, cfg := benchfig.Ablation(), memsys.DefaultConfig()
	cfg.L2Assoc = ab.L2Assocs[1]
	add(fmt.Sprintf("quick-l2assoc%d/%s", cfg.L2Assoc, ab.App), core.ModelMipsy, cfg, quick(ab.App), ab.Arch)
	return jobs, floored
}

func ledgerRun(t *testing.T, job runner.Job) ledgerRow {
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	w, err := job.Workload()
	must(err)
	m, err := core.NewMachine(job.Arch, job.Model, job.Cfg, w.MemBytes())
	must(err)
	var work ledgerWork
	// The CPUs capture m.Sys when Configure builds them, and are
	// wrapped once built.
	m.Sys = &sysCounter{m.Sys, &work}
	must(w.Configure(m))
	for k, c := range m.CPUs {
		cc := &coreCounter{c, &work}
		m.CPUs[k] = cc
		if _, ok := c.(interface{ ExactHints() }); ok {
			m.CPUs[k] = exactCounter{cc}
		}
	}
	res, err := m.Run(2_000_000_000)
	must(err)
	must(w.Validate(m))
	rep, _ := json.Marshal(res.MemReport)
	return ledgerRow{job.Tag, res.Cycles, res.Instructions(), res.PerCPU, fmt.Sprintf("%x", sha256.Sum256(rep))[:16], m.SkippedCycles(), work}
}

// sysCounter counts a machine's memory-system calls into its
// ledgerWork. It forwards the optional methods core finds by type
// assertion; IFetchHit it hides, since core.NewMachine has already
// handed Mipsy the system it built.
type sysCounter struct {
	memsys.System
	n *ledgerWork
}

func (s *sysCounter) Access(now uint64, cpu int, addr uint32, write bool) (memsys.Result, bool) {
	r, ok := s.System.Access(now, cpu, addr, write)
	s.n.Access++
	if !ok {
		s.n.Refused++
	}
	return r, ok
}

func (s *sysCounter) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	s.n.IFetch++
	return s.System.IFetch(now, cpu, addr)
}

func (s *sysCounter) SetSharedData(f func(addr uint32) bool) {
	if d, ok := s.System.(interface{ SetSharedData(func(uint32) bool) }); ok {
		d.SetSharedData(f)
	}
}

func (s *sysCounter) MSHROutstanding(now uint64) int {
	if p, ok := s.System.(interface{ MSHROutstanding(uint64) int }); ok {
		return p.MSHROutstanding(now)
	}
	return 0
}

// coreCounter counts the cycle loop's calls into one CPU model. It
// forwards SkipCycles, through which MXS backfills its stall blame.
type coreCounter struct {
	core.Core
	n *ledgerWork
}

func (c *coreCounter) Tick(now uint64) uint64 {
	c.n.Ticks++
	return c.Core.Tick(now)
}

func (c *coreCounter) NextWork(now uint64) uint64 {
	c.n.NextWork++
	return c.Core.NextWork(now)
}

func (c *coreCounter) SkipCycles(from, to uint64) {
	if s, ok := c.Core.(interface{ SkipCycles(from, to uint64) }); ok {
		s.SkipCycles(from, to)
	}
}

// exactCounter is a coreCounter around a model that declares exact wake
// hints, and declares them too, so the NextWork column counts the calls
// the default loop makes.
type exactCounter struct{ *coreCounter }

func (exactCounter) ExactHints() {}

// TestLedger holds every exact count of the repo to testdata/ledger.json
// and the memory-bound Mipsy rows to skipFloor. A re-baseline is a
// runner.SimVersion bump plus `-run TestLedger -update`; moved work
// columns alone need only `-update`.
func TestLedger(t *testing.T) {
	var file ledgerFile
	raw, err := os.ReadFile(ledgerPath)
	if err == nil {
		err = json.Unmarshal(raw, &file)
	}
	if err != nil {
		t.Fatal(err)
	}
	jobs, floored := ledgerJobs()
	got := make([]ledgerRow, len(jobs))
	t.Run("rows", func(t *testing.T) { // returns once every parallel row has finished
		for i, job := range jobs {
			t.Run(job.Tag, func(t *testing.T) {
				t.Parallel()
				got[i] = ledgerRun(t, job)
			})
		}
	})
	if slices.ContainsFunc(got, func(r ledgerRow) bool { return r.Row == "" }) {
		t.SkipNow() // a row failed, or -run selected only some rows
	}
	action, why := decideLedger(file, got, floored, runner.SimVersion, *update)
	switch action {
	case "fail":
		t.Fatal(strings.Join(why, "\n"))
	case "pass":
		return
	}
	t.Log(strings.Join(why, "\n"))
	// One row per line, so a drifted row is a one-line diff.
	rows := make([]string, len(got))
	for i, g := range got {
		rows[i] = g.String()
	}
	out := fmt.Sprintf("{\"sim_version\": %d, \"digest\": %q, \"rows\": [\n%s\n]}\n", runner.SimVersion, ledgerDigest(got), strings.Join(rows, ",\n"))
	if err := os.WriteFile(ledgerPath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerRules holds decideLedger to the ledger's rules on a
// two-row file whose row a is floored.
func TestLedgerRules(t *testing.T) {
	rows := []ledgerRow{{Row: "a", Cycles: 100, Instructions: 50, MemReport: "00", Skipped: 97}, {Row: "b", Cycles: 200}}
	floored := map[string]bool{"a": true}
	at := func(version int, rows []ledgerRow) ledgerFile { return ledgerFile{version, ledgerDigest(rows), rows} }
	with := func(k int, edit func(*ledgerRow)) []ledgerRow {
		rs := slices.Clone(rows)
		edit(&rs[k])
		return rs
	}
	slower := with(1, func(r *ledgerRow) { r.Cycles++ })
	skipped := with(1, func(r *ledgerRow) { r.Skipped = 9 })
	worked := with(1, func(r *ledgerRow) { r.NextWork = 3 })
	lowSkip := with(0, func(r *ledgerRow) { r.Skipped = 90 })
	handEdited := ledgerFile{3, ledgerDigest(rows), slower}
	for _, c := range []struct {
		name    string
		file    ledgerFile
		got     []ledgerRow
		version int
		update  bool
		want    string
	}{
		{"equal", at(3, rows), rows, 3, false, "pass"},
		{"equal/update", at(3, rows), rows, 3, true, "pass"},
		{"moved", at(3, rows), slower, 3, false, "fail"},
		{"moved/update", at(3, rows), slower, 3, true, "fail"},
		{"moved/bumped", at(3, rows), slower, 4, false, "fail"},
		{"moved/bumped/update", at(3, rows), slower, 4, true, "write"},
		{"skipped", at(3, rows), skipped, 3, false, "fail"},
		{"skipped/update", at(3, rows), skipped, 3, true, "write"},
		{"worked", at(3, rows), worked, 3, false, "fail"},
		{"worked/update", at(3, rows), worked, 3, true, "write"},
		{"below-floor", at(3, rows), lowSkip, 3, false, "fail"},
		{"below-floor/update", at(3, rows), lowSkip, 3, true, "fail"},
		{"below-floor/bumped/update", at(3, rows), lowSkip, 4, true, "fail"},
		{"below-floor/recorded", at(3, lowSkip), lowSkip, 3, false, "fail"},
		{"bumped", at(3, rows), rows, 4, false, "fail"},
		{"bumped/update", at(3, rows), rows, 4, true, "write"},
		{"hand-edited", handEdited, slower, 3, false, "fail"},
		{"hand-edited/update", handEdited, slower, 3, true, "fail"},
		{"row-dropped", at(3, rows), rows[:1], 3, false, "fail"},
		{"row-added", at(3, rows[:1]), rows, 3, false, "fail"},
	} {
		got, why := decideLedger(c.file, c.got, floored, c.version, c.update)
		if got != c.want || got == "fail" && why == nil {
			t.Errorf("%s: %s, want %s (%q)", c.name, got, c.want, why)
		}
	}
	if _, why := decideLedger(at(3, rows), slower, floored, 3, true); !strings.Contains(why[0], "b\n got: ") ||
		!strings.Contains(why[len(why)-1], "bump runner.SimVersion to 4") {
		t.Errorf("the refusal does not name the moved row and the bump: %q", why)
	}
	if _, why := decideLedger(handEdited, slower, floored, 3, false); !strings.Contains(strings.Join(why, "\n"), "edited by hand") {
		t.Errorf("a hand edit is not named: %q", why)
	}
	if _, why := decideLedger(at(3, rows), lowSkip, floored, 3, true); !strings.HasPrefix(why[0], "a: ") || !strings.Contains(why[0], "(0.900)") {
		t.Errorf("the floor violation does not name the row and its ratio: %q", why)
	}
	for _, moved := range [][]ledgerRow{skipped, worked} {
		if ledgerDigest(moved) != ledgerDigest(rows) {
			t.Errorf("a work column moves the digest: %v", moved[1])
		}
	}
}
