package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/workload"
)

// testCells are small cells that still reach everything the probes
// must forward: MP3D declares shared data (SetSharedData on shared-l2),
// pmake runs the guest kernel (ClearReservation, timer events), and MXS
// backfills stall blame through SkipCycles on every verified jump.
func testCells() []cell {
	mk := map[string]func() workload.Workload{
		"mp3d": func() workload.Workload { return workload.NewMP3D(workload.MP3DParams{Particles: 256, Steps: 1}) },
		"pmake": func() workload.Workload {
			return workload.NewPmake(workload.PmakeParams{Procs: 4, Funcs: 12, Passes: 1})
		},
	}
	var out []cell
	for _, model := range []core.CPUModel{core.ModelMipsy, core.ModelMXS} {
		for _, a := range core.Arches() {
			for _, app := range []string{"mp3d", "pmake"} {
				out = append(out, cell{App: app, Arch: a, Model: model, Config: "paper", cfg: memsys.DefaultConfig(), new: mk[app]})
			}
		}
	}
	return out
}

// The probes must not change a single reported number, and the logged
// calls must be the memory system's whole input.
func TestProbesAreNeutralAndReplayIsExact(t *testing.T) {
	for _, c := range testCells() {
		plain := c.run(c.cfg, runMode{})
		probed := c.run(c.cfg, runMode{count: true, log: true})
		if plain.err != nil || probed.err != nil {
			t.Fatalf("%s: %v / %v", c.tag(), plain.err, probed.err)
		}
		a, _ := json.Marshal(plain.res)
		b, _ := json.Marshal(probed.res)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: RunResult differs with the probes in place", c.tag())
		}
		if plain.skipped != probed.skipped {
			t.Errorf("%s: skipped cycles %d with probes, %d without", c.tag(), probed.skipped, plain.skipped)
		}
		if probed.cores.ticks == 0 || probed.sys.calls() == 0 || uint64(len(probed.sys.log)) != probed.sys.calls() {
			t.Errorf("%s: probes counted %d ticks, %d calls, logged %d", c.tag(), probed.cores.ticks, probed.sys.calls(), len(probed.sys.log))
		}
		if c.Model == core.ModelMXS && probed.skipped > 0 && probed.cores.nextWork == 0 {
			t.Errorf("%s: cycles were skipped but no NextWork call was counted", c.tag())
		}
		_, rep, err := replay(c.Arch, probed.cfg, probed.sys.shared, probed.sys.log)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, probed.res.MemReport) {
			t.Errorf("%s: replayed report differs from the run's", c.tag())
		}
		if c.Arch == core.SharedL2 && probed.sys.shared == nil {
			t.Errorf("%s: the shared-data classifier was not captured", c.tag())
		}
	}
}

// The perfect memory must keep guest synchronization working.
func TestPerfectMemoryValidates(t *testing.T) {
	for _, c := range testCells()[:2] {
		if s := c.run(c.cfg, runMode{count: true, perfect: true}); s.err != nil {
			t.Errorf("%s: %v", c.tag(), s.err)
		}
	}
}

// A pool workload's passes go through runner.Pool on two workers; the
// samples are filled in by the workers (go test -race covers the
// hand-over) and composed by poolWall.
func TestPooledPasses(t *testing.T) {
	b := &bench{spec: &spec{name: "test", pool: true}, cells: testCells(), workers: 2, tmp: t.TempDir()}
	for i := 0; i < 2; i++ {
		if err := b.measuredPass(); err != nil {
			t.Fatal(err)
		}
	}
	if b.failed != 0 {
		t.Fatalf("%d failed operations: %v", b.failed, b.errs)
	}
	e := b.endToEnd()
	var serial float64
	for _, s := range b.passes[0].samples {
		serial += s.wallS()
	}
	if w := e["wall_s"].Value; w <= 0 || w >= serial {
		t.Errorf("pool wall_s = %v, the jobs of one batch sum to %v", w, serial)
	}
	if got := makespan([]float64{3, 1, 1, 1}, 2); got != 3 {
		t.Errorf("makespan = %v, want 3", got)
	}
	if got := makespan([]float64{3, 1, 1, 1}, 1); got != 6 {
		t.Errorf("makespan on one worker = %v, want the sum", got)
	}
}

func TestNearStaysLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, q int }{{400, 1}, {60, 1}, {16384, 4}, {2048, 4}, {48, 4}, {16, 4}} {
		for i := 0; i < 100; i++ {
			v := near(rng, tc.n, tc.q)
			if v%tc.q != 0 || v*100 < tc.n*97 || v > tc.n {
				t.Fatalf("near(%d, %d) = %d", tc.n, tc.q, v)
			}
		}
		if near(nil, tc.n, tc.q) != tc.n {
			t.Fatalf("near without an rng must return the canonical value")
		}
	}
}

// Every seed must give cells whose data sets are the canonical ones
// (seed 0) or legal neighbours; same seed, same cells.
func TestCellsAreDeterministic(t *testing.T) {
	for i := range specs {
		a, err := specs[i].cells(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := specs[i].cells(7)
		for j := range a {
			if a[j].tag() != b[j].tag() || a[j].Params != b[j].Params {
				t.Fatalf("%s: seed 7 gave %s then %s", specs[i].name, a[j].String(), b[j].String())
			}
		}
	}
}

// Whatever sizes a seed draws must still configure, run and validate.
func TestDrawnSizesValidate(t *testing.T) {
	quick := spec{name: "test", sets: []cellSet{{apps, workload.NewQuick, core.ModelMipsy, "membound"}}}
	for seed := int64(1); seed <= 3; seed++ {
		cells, err := quick.cells(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Arch != core.SharedMem {
				continue
			}
			if s := c.run(c.cfg, runMode{}); s.err != nil {
				t.Errorf("seed %d: %s: %v", seed, c.String(), s.err)
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the tables the command prints from must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) || len(f.EndToEnd) != len(endToEndMetrics) || len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the tables have %d, %d, %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(specs), len(endToEndMetrics), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q", i, w.Name, w.Why)
		}
	}
	hasSetup := false
	for i, m := range f.EndToEnd {
		name(m.Name)
		e := endToEndMetrics[i]
		if m.Name != e.name || m.Unit != e.unit || m.Better != e.better || m.Bound != e.bound || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v, table has %+v", i, m, e)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		e := perLayerMetrics[i]
		if m.Name != e.name || m.Unit != e.unit || m.Better != e.better {
			t.Errorf("per-layer metric %d: %+v, table has %+v", i, m, e)
		}
	}

	// The contract line carries exactly those names.
	for trace, want := range [][]metric{endToEndMetrics, perLayerMetrics} {
		var buf bytes.Buffer
		printContractLine(&buf, &workloadResult{Attempted: 1}, trace)
		var line struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics on the line, want %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := line.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace %d: metric %s missing or with unit %q", trace, m.name, got.Unit)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(wall float64, passes ...float64) []*result {
		return []*result{{Workloads: []workloadResult{{
			Name: "paper_mipsy", Digest: "d",
			EndToEnd: map[string]summary{"wall_s": {wall, passes}},
			PerLayer: map[string]float64{"core.ticks": 100},
		}}}}
	}
	for _, tc := range []struct {
		base, change []*result
		want         string
		code         int
	}{
		{mk(10, 10, 10.2), mk(10.5, 10.5, 10.6), " ok ", 0},
		{mk(10, 10, 10.2), mk(13, 13, 13.1), " worse ", 1},
		{mk(10, 10, 14), mk(11, 11, 12), " unresolved ", 0},
		{mk(10, 10, 14), mk(8, 8, 9), " ok ", 0},
	} {
		var buf bytes.Buffer
		if code := compareResults(&buf, tc.base, tc.change); code != tc.code || !strings.Contains(buf.String(), tc.want) {
			t.Errorf("want %q and exit %d, got exit %d:\n%s", tc.want, tc.code, code, buf.String())
		}
	}
	changed := mk(10, 10, 10.2)
	changed[0].Workloads[0].PerLayer["core.ticks"] = 99
	var buf bytes.Buffer
	if code := compareResults(&buf, mk(10, 10, 10.2), changed); code != 1 || !strings.Contains(buf.String(), "core.ticks") {
		t.Errorf("a changed exact count must be reported:\n%s", buf.String())
	}
}
