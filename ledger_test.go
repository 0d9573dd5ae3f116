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

// ledgerRow is one simulation's outcome. Every column but Skipped, the
// scheduler's own (cycles jumped instead of ticked), is in the digest.
type ledgerRow struct {
	Row                  string
	Cycles, Instructions uint64
	PerCPU               []cpu.StallStats
	MemReport            string // short SHA-256 of the JSON-encoded memsys.Report
	Skipped              uint64
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

// ledgerDigest is a SHA-256 over the result columns of rows, in order.
func ledgerDigest(rows []ledgerRow) string {
	h := sha256.New()
	for _, r := range rows {
		r.Skipped = 0
		fmt.Fprintln(h, r)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// decideLedger says whether rows got, computed at simulator version
// version, "pass", "fail" or "write" the committed file, and why: any
// difference fails, unless -update writes it; moved results need a bump.
func decideLedger(file ledgerFile, got []ledgerRow, version int, update bool) (string, []string) {
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
// 4-way L2 (its direct-mapped row is quick/mp3d/shared-l1/mipsy).
func ledgerJobs() []runner.Job {
	var jobs []runner.Job
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
	}
	for _, app := range []string{"eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "pmake"} {
		add("quick/"+app, core.ModelMipsy, memsys.DefaultConfig(), quick(app), core.Arches()...)
		add("quick/"+app, core.ModelMXS, memsys.DefaultConfig(), quick(app), core.Arches()...)
	}
	add("quick-mxs-membound/pmake", core.ModelMXS, benchfig.MXSMemBoundConfig(), quick("pmake"), core.Arches()...)
	ab, cfg := benchfig.Ablation(), memsys.DefaultConfig()
	cfg.L2Assoc = ab.L2Assocs[1]
	add(fmt.Sprintf("quick-l2assoc%d/%s", cfg.L2Assoc, ab.App), core.ModelMipsy, cfg, quick(ab.App), ab.Arch)
	return jobs
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
	must(w.Configure(m))
	res, err := m.Run(2_000_000_000)
	must(err)
	must(w.Validate(m))
	rep, _ := json.Marshal(res.MemReport)
	return ledgerRow{job.Tag, res.Cycles, res.Instructions(), res.PerCPU, fmt.Sprintf("%x", sha256.Sum256(rep))[:16], m.SkippedCycles()}
}

// TestLedger holds every exact count of the repo to testdata/ledger.json.
// A re-baseline is a runner.SimVersion bump plus `-run TestLedger -update`.
func TestLedger(t *testing.T) {
	var file ledgerFile
	raw, err := os.ReadFile(ledgerPath)
	if err == nil {
		err = json.Unmarshal(raw, &file)
	}
	if err != nil {
		t.Fatal(err)
	}
	jobs := ledgerJobs()
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
	action, why := decideLedger(file, got, runner.SimVersion, *update)
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
// two-row file.
func TestLedgerRules(t *testing.T) {
	rows := []ledgerRow{{Row: "a", Cycles: 100, Instructions: 50, MemReport: "00", Skipped: 7}, {Row: "b", Cycles: 200}}
	at := func(version int, rows []ledgerRow) ledgerFile { return ledgerFile{version, ledgerDigest(rows), rows} }
	with := func(edit func(*ledgerRow)) []ledgerRow {
		rs := slices.Clone(rows)
		edit(&rs[1])
		return rs
	}
	slower := with(func(r *ledgerRow) { r.Cycles++ })
	skipped := with(func(r *ledgerRow) { r.Skipped = 9 })
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
		{"bumped", at(3, rows), rows, 4, false, "fail"},
		{"bumped/update", at(3, rows), rows, 4, true, "write"},
		{"hand-edited", handEdited, slower, 3, false, "fail"},
		{"hand-edited/update", handEdited, slower, 3, true, "fail"},
		{"row-dropped", at(3, rows), rows[:1], 3, false, "fail"},
		{"row-added", at(3, rows[:1]), rows, 3, false, "fail"},
	} {
		got, why := decideLedger(c.file, c.got, c.version, c.update)
		if got != c.want || got == "fail" && why == nil {
			t.Errorf("%s: %s, want %s (%q)", c.name, got, c.want, why)
		}
	}
	if _, why := decideLedger(at(3, rows), slower, 3, true); !strings.Contains(why[0], "b\n got: ") ||
		!strings.Contains(why[len(why)-1], "bump runner.SimVersion to 4") {
		t.Errorf("the refusal does not name the moved row and the bump: %q", why)
	}
	if _, why := decideLedger(handEdited, slower, 3, false); !strings.Contains(strings.Join(why, "\n"), "edited by hand") {
		t.Errorf("a hand edit is not named: %q", why)
	}
}
