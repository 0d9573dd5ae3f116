package cmpsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"cmpsim/internal/benchfig"
	"cmpsim/internal/check"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/kernel"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
	"cmpsim/internal/prof"
	"cmpsim/internal/runner"
	"cmpsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.json (refused when results move at an unchanged runner.SimVersion)")

const ledgerPath = "testdata/ledger.json"

// ledgerRow is one simulation's outcome. The result columns, Row to
// MemReport, are in the digest; Skipped and the work columns count the
// host work the run took, and Image is held to the other rows of its
// workload and data set (sameImages), so neither is.
type ledgerRow struct {
	Row                  string
	Cycles, Instructions uint64
	PerCPU               []cpu.StallStats
	MemReport            string // short SHA-256 of the JSON-encoded memsys.Report
	Skipped              uint64 // cycles the loop jumped instead of ticking
	ledgerWork
	Image string // short SHA-256 of the final image's stored-to chunks (finalImage.hash)
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

// ledgerJobs lists the rows: every cell cmd/experiments prints at the
// paper's size, that is every titled benchfig row and sweep point, then
// the memory-bound sentinels, the quick cells, quick pmake under MXS on
// the memory-bound point and every sweep's quick points. A point at the
// paper's configuration is the row of its figure or quick cell. The
// race detector runs all but the paper-size rows, which take the quick
// rows' code paths. The rows of the memory-bound Mipsy figures are
// floored. A job's WorkloadKey names its workload and data set: the
// rows that must end on one image.
func ledgerJobs() (jobs []runner.Job, floored map[string]bool) {
	floored = map[string]bool{}
	add := func(name, key string, mk func() (workload.Workload, error), model core.CPUModel, cfg memsys.Config, arches ...core.Arch) {
		for _, a := range arches {
			jobs = append(jobs, runner.Job{Workload: mk, WorkloadKey: key, Arch: a, Model: model, Cfg: cfg, Tag: fmt.Sprintf("%s/%s/%s", name, a, model)})
		}
	}
	quick := func(app string) func() (workload.Workload, error) {
		return func() (workload.Workload, error) { return workload.NewQuick(app) }
	}
	// sweeps adds the points of the sweeps run at size that are not
	// their app's default cell; only a titled sweep runs full-size.
	sweeps := func(size string, mk func(string) (workload.Workload, error)) {
		for _, s := range benchfig.Sweeps() {
			for _, v := range s.Values {
				if !s.Default(v) && (size == "quick" || s.Title != "") {
					add(size+"-"+s.Point(v)+"/"+s.App, s.App+"/"+size, func() (workload.Workload, error) { return mk(s.App) }, core.ModelMipsy, s.Config(v), s.Arch)
				}
			}
		}
	}
	if !raceBuild {
		for _, f := range benchfig.Figures() {
			if f.Title != "" {
				add(f.Name, f.App+"/full", f.Workload, f.Model, f.Config(), core.Arches()...)
			}
		}
		sweeps("full", workload.New)
	}
	for _, f := range benchfig.Figures() {
		if !f.MemBound() {
			continue
		}
		add(f.Name, f.Name, f.Workload, f.Model, f.Config(), core.Arches()...)
		if f.Model == core.ModelMipsy {
			for _, j := range jobs[len(jobs)-len(core.Arches()):] {
				floored[j.Tag] = true
			}
		}
	}
	for _, app := range []string{"eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "pmake"} {
		add("quick/"+app, app+"/quick", quick(app), core.ModelMipsy, memsys.DefaultConfig(), core.Arches()...)
		add("quick/"+app, app+"/quick", quick(app), core.ModelMXS, memsys.DefaultConfig(), core.Arches()...)
	}
	add("quick-mxs-membound/pmake", "pmake/quick", quick("pmake"), core.ModelMXS, benchfig.MXSMemBoundConfig(), core.Arches()...)
	sweeps("quick", workload.NewQuick)
	return jobs, floored
}

// ledgerRun runs job and returns its row and its final image.
func ledgerRun(t *testing.T, job runner.Job) (ledgerRow, finalImage) {
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
	sys := &sysCounter{System: m.Sys, n: &work, stored: make([]uint64, m.Img.Size()>>chunkShift/64+1)}
	m.Sys = sys
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
	if sys.bad != 0 {
		t.Errorf("%s: %d memory-system calls out of cycle order or done by their issue cycle; the first: %s", job.Tag, sys.bad, sys.first)
	}
	rep, _ := json.Marshal(res.MemReport)
	img := finalImage{m.Img, sys.chunks(w), res.Profile}
	return ledgerRow{job.Tag, res.Cycles, res.Instructions(), res.PerCPU, fmt.Sprintf("%x", sha256.Sum256(rep))[:16], m.SkippedCycles(), work, img.hash()}, img
}

// chunkShift sizes the chunks of guest memory whose stores sysCounter
// records: 4 KiB.
const chunkShift = 12

// finalImage is a finished run's guest memory, restricted to the
// chunks its CPUs stored to (sysCounter.chunks), with the profile that
// names its addresses when the run had a profiler.
type finalImage struct {
	img     *mem.Image
	chunks  []uint32 // base addresses, ascending
	profile *prof.Profile
}

// hash is a short SHA-256 over the image's chunks, each with its
// address.
func (f finalImage) hash() string {
	h := sha256.New()
	var buf [1<<chunkShift + 4]byte
	for _, c := range f.chunks {
		binary.LittleEndian.PutUint32(buf[:], c)
		for i := uint32(0); i < 1<<chunkShift; i += 8 {
			binary.LittleEndian.PutUint64(buf[4+i:], f.img.Read64(c+i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// firstDiff names the lowest word at which two final images differ,
// with its data symbol in a's profile, or the lowest chunk only one of
// them stored to.
func firstDiff(a, b finalImage) string {
	all := append(slices.Clone(a.chunks), b.chunks...)
	slices.Sort(all)
	for _, c := range slices.Compact(all) {
		if slices.Contains(a.chunks, c) != slices.Contains(b.chunks, c) {
			return fmt.Sprintf("the chunk at %#x is stored to by one row only", c)
		}
		for addr := c; addr < c+1<<chunkShift; addr += 4 {
			if x, y := a.img.Read32(addr), b.img.Read32(addr); x != y {
				sym := "no symbol"
				if name, off, ok := a.profile.DataAt(addr); ok {
					sym = fmt.Sprintf("%s+%#x", name, off)
				}
				return fmt.Sprintf("first difference at %#x (%s): %#x vs %#x", addr, sym, x, y)
			}
		}
	}
	return "no difference"
}

// sameImages returns, for each row whose image differs from the first
// row of its workload and data set (its job's WorkloadKey), the index
// of that first row and its own.
func sameImages(jobs []runner.Job, rows []ledgerRow) (pairs [][2]int) {
	first := map[string]int{}
	for i, job := range jobs {
		j, seen := first[job.WorkloadKey]
		if !seen {
			first[job.WorkloadKey] = i
		} else if rows[i].Image != rows[j].Image {
			pairs = append(pairs, [2]int{j, i})
		}
	}
	return pairs
}

// sweepOrder names, for each sweep at each size, the neighbouring
// points the ledger ran whose cycles move against its direction.
func sweepOrder(sweeps []benchfig.Sweep, jobs []runner.Job, rows []ledgerRow) (why []string) {
	cycles := map[string]uint64{}
	for i := range jobs {
		cycles[runner.Key(&jobs[i])] = rows[i].Cycles
	}
	for _, s := range sweeps {
		for _, size := range []string{"quick", "full"} {
			last, lastCycles := "", uint64(0) // the previous point the ledger ran
			for _, v := range s.Values {
				c, ok := cycles[runner.Key(&runner.Job{WorkloadKey: s.App + "/" + size, Arch: s.Arch, Model: core.ModelMipsy, Cfg: s.Config(v)})]
				if ok && last != "" && c != lastCycles && c > lastCycles != (s.Dir > 0) {
					why = append(why, fmt.Sprintf("sweep %s, %s size: %d cycles at %s, %d at %s, against its direction %+d",
						s.Name, size, lastCycles, last, c, s.Point(v), s.Dir))
				}
				if ok {
					last, lastCycles = s.Point(v), c
				}
			}
		}
	}
	return why
}

// sysCounter counts a machine's memory-system calls into its
// ledgerWork, and checks that the calls which reach beyond a CPU's own
// I-cache (every Access, and every IFetch that misses) arrive in cycle
// order across the machine, and that every accepted Access and IFetch
// is done after its issue cycle (check.DoneAfterIssue, the sanitizer's
// rule): it counts the calls that break either rule
// in bad and describes the first. It forwards the optional methods
// core finds by type assertion; IFetchHit it hides, since
// core.NewMachine has already handed Mipsy the system it built.
type sysCounter struct {
	memsys.System
	n      *ledgerWork
	last   uint64 // the cycle of the last ordered call
	bad    uint64
	first  string
	stored []uint64 // a bit per 4 KiB chunk of guest memory that a store reached
}

// order checks one ordered call made at cycle now against the one
// before it.
func (s *sysCounter) order(call string, now uint64, cpu int) {
	if now < s.last {
		s.fail("%s by cpu %d at cycle %d, after a call at cycle %d", call, cpu, now, s.last)
	}
	s.last = now
}

// fail counts one call that breaks a rule, and describes the first.
func (s *sysCounter) fail(format string, args ...any) {
	if s.bad++; s.first == "" {
		s.first = fmt.Sprintf(format, args...)
	}
}

func (s *sysCounter) Access(now uint64, cpu int, addr uint32, write bool) (memsys.Result, bool) {
	s.order("Access", now, cpu)
	if write {
		s.stored[addr>>chunkShift/64] |= 1 << (addr >> chunkShift % 64)
	}
	r, ok := s.System.Access(now, cpu, addr, write)
	s.n.Access++
	if !ok {
		s.n.Refused++
	} else if !check.DoneAfterIssue(now, r.Done) {
		s.fail("Access by cpu %d at cycle %d completes at cycle %d", cpu, now, r.Done)
	}
	return r, ok
}

// chunks lists the chunks stored to from workload.DataBase up, which
// must end alike whatever ran them. A workload that boots the kernel
// leaves out the kernel region, whose scheduler state is timing's.
func (s *sysCounter) chunks(w workload.Workload) []uint32 {
	var out []uint32
	_, boots := w.(interface{ Kernel() *kernel.Kernel })
	for c := uint32(workload.DataBase); c>>chunkShift/64 < uint32(len(s.stored)); c += 1 << chunkShift {
		inKernel := boots && c >= kernel.Base && c < kernel.Limit
		if s.stored[c>>chunkShift/64]&(1<<(c>>chunkShift%64)) != 0 && !inKernel {
			out = append(out, c)
		}
	}
	return out
}

// IFetch counts every fetch. A hit in the CPU's own I-cache is the one
// that arrives at the next cycle, and is left out of the order.
func (s *sysCounter) IFetch(now uint64, cpu int, addr uint32) memsys.Result {
	s.n.IFetch++
	r := s.System.IFetch(now, cpu, addr)
	if !check.DoneAfterIssue(now, r.Done) {
		s.fail("IFetch by cpu %d at cycle %d completes at cycle %d", cpu, now, r.Done)
	}
	if r.Done > now+1 {
		s.order("a missed IFetch", now, cpu)
	}
	return r
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

// TestLedger holds every exact count of the repo to testdata/ledger.json,
// the memory-bound Mipsy rows to skipFloor, every sweep to its
// direction (sweepOrder) and every row's memory-system calls to cycle
// order (sysCounter). A re-baseline is a
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
				got[i], _ = ledgerRun(t, job)
			})
		}
	})
	if slices.ContainsFunc(got, func(r ledgerRow) bool { return r.Row == "" }) {
		t.SkipNow() // a row failed, or -run selected only some rows
	}
	broken := sweepOrder(benchfig.Sweeps(), jobs, got)
	for _, p := range sameImages(jobs, got) {
		a, b := jobs[p[0]], jobs[p[1]]
		for _, j := range []*runner.Job{&a, &b} {
			j.Cfg.Prof = prof.New(j.Cfg.NumCPUs, j.Cfg.LineBytes)
		}
		_, ia := ledgerRun(t, a)
		_, ib := ledgerRun(t, b)
		broken = append(broken, fmt.Sprintf("%s and %s end on different images: %s", a.Tag, b.Tag, firstDiff(ia, ib)))
	}
	if broken != nil {
		t.Fatal(strings.Join(broken, "\n"))
	}
	if raceBuild { // hold the rows run to their lines, and write nothing
		file.Rows = slices.DeleteFunc(file.Rows, func(r ledgerRow) bool {
			return !slices.ContainsFunc(got, func(g ledgerRow) bool { return g.Row == r.Row })
		})
		file.Digest, *update = ledgerDigest(file.Rows), false
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

// TestImageRules holds sameImages to pairing each row with the first
// row of its workload and data set when their images differ, and
// firstDiff to naming the lowest differing word with its symbol.
func TestImageRules(t *testing.T) {
	keys := []runner.Job{{WorkloadKey: "x/quick"}, {WorkloadKey: "y/quick"}, {WorkloadKey: "x/quick"}, {WorkloadKey: "x/full"}, {WorkloadKey: "x/quick"}}
	rows := []ledgerRow{{Image: "a"}, {Image: "b"}, {Image: "a"}, {Image: "c"}, {Image: "d"}}
	if got := sameImages(keys, rows); !slices.Equal(got, [][2]int{{0, 4}}) {
		t.Errorf("sameImages = %v, want [[0 4]]", got)
	}
	image := func(chunks []uint32, words map[uint32]uint32) finalImage {
		img := mem.NewImage(1 << 20)
		for a, v := range words {
			img.Write32(a, v)
		}
		return finalImage{img, chunks, &prof.Profile{Symbols: []prof.Symbol{{Name: "vec", Start: 0x3000, End: 0x4000}}}}
	}
	a := image([]uint32{0x2000, 0x3000}, map[uint32]uint32{0x2004: 1, 0x3008: 2, 0x300c: 3})
	for _, c := range []struct {
		b    finalImage
		want string
	}{
		{image([]uint32{0x2000, 0x3000}, map[uint32]uint32{0x2004: 1, 0x3008: 2, 0x300c: 3}), "no difference"},
		{image([]uint32{0x2000, 0x3000}, map[uint32]uint32{0x2004: 1, 0x3008: 5, 0x300c: 6}), "first difference at 0x3008 (vec+0x8): 0x2 vs 0x5"},
		{image([]uint32{0x2000, 0x3000}, map[uint32]uint32{0x2004: 7, 0x3008: 2, 0x300c: 3}), "first difference at 0x2004 (no symbol): 0x1 vs 0x7"},
		{image([]uint32{0x1000, 0x2000, 0x3000}, map[uint32]uint32{0x2004: 1, 0x3008: 2, 0x300c: 3}), "the chunk at 0x1000 is stored to by one row only"},
	} {
		if got := firstDiff(a, c.b); got != c.want {
			t.Errorf("firstDiff = %q, want %q", got, c.want)
		}
		if got, want := a.hash() == c.b.hash(), c.want == "no difference"; got != want {
			t.Errorf("%s: equal hashes %v", c.want, got)
		}
	}
}
