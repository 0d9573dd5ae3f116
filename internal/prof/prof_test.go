package prof_test

import (
	"bytes"
	"strings"
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
	"cmpsim/internal/prof"
	"cmpsim/internal/workload"
)

// quickProfile profiles quick Eqntott on the shared-memory machine, the
// architecture with coherence traffic for the heatmap.
func quickProfile(t *testing.T) *prof.Profile {
	t.Helper()
	w, err := workload.NewQuick("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	cfg := memsys.DefaultConfig()
	cfg.Prof = prof.New(cfg.NumCPUs, cfg.LineBytes)
	res, err := workload.Run(w, core.SharedMem, core.ModelMipsy, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Profile; p == nil || len(p.PCs) == 0 || len(p.Lines) == 0 || p.Workload != "eqntott" {
		t.Fatalf("quick run left no usable profile: %+v", p)
	}
	return res.Profile
}

// handProfile is a profile small enough to check by eye: two functions,
// a PC outside every symbol, one falsely shared line and one private
// line. Workload is left empty, the way a profile from outside
// workload.Run arrives.
func handProfile() *prof.Profile {
	return &prof.Profile{
		Arch:      "shared-l2",
		Model:     "mxs",
		NumCPUs:   2,
		LineBytes: 32,
		PCs: []prof.PCEntry{
			{PC: 0x1000, Retired: 10, DStall: [prof.NumLevels]uint64{0, 4, 0, 0}},
			{PC: 0x1004, Retired: 5, Pipe: 3},
			{PC: 0x1100, Retired: 2, IStall: [prof.NumLevels]uint64{0, 0, 9, 0}},
			{PC: 0x9000, Retired: 1},
		},
		Lines: []prof.LineEntry{
			{Addr: 0x20000, Reads: 6, Writes: 4, Misses: 3, Invals: 2, C2C: 1,
				Pairs:        []prof.Pair{{Writer: 0, Reader: 1, Count: 2}, {Writer: 1, Reader: 0, Count: 1}},
				Touch:        []prof.CPUTouch{{CPU: 0, ReadMask: 1, WriteMask: 1}, {CPU: 1, ReadMask: 2, WriteMask: 2}},
				FalseSharing: true},
			{Addr: 0x20020, Reads: 1, Misses: 1, Touch: []prof.CPUTouch{{CPU: 1, ReadMask: 1}}},
		},
		Symbols: []prof.Symbol{
			{Name: "main", Start: 0x1000, End: 0x1100, Text: true},
			{Name: "loop", Start: 0x1100, End: 0x1200, Text: true},
			{Name: "counts", Start: 0x20000, End: 0x20040},
		},
	}
}

// render returns a profile's JSON, report and folded stacks.
func render(t *testing.T, p *prof.Profile) (js, report, folded []byte) {
	t.Helper()
	var j, r, f bytes.Buffer
	if err := p.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	p.WriteReport(&r, 10)
	if err := p.WriteFolded(&f); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), r.Bytes(), f.Bytes()
}

// TestReadProfileRoundTrip: a profile read back from its JSON renders
// the same report and folded stacks, and writes the same JSON, as the
// profile that wrote it. This is what makes simprof on a -prof-out file
// equal to cmpsim -prof on the run.
func TestReadProfileRoundTrip(t *testing.T) {
	for name, p := range map[string]*prof.Profile{"quick-run": quickProfile(t), "hand-built": handProfile()} {
		t.Run(name, func(t *testing.T) {
			js, report, folded := render(t, p)
			back, err := prof.ReadProfile(bytes.NewReader(js))
			if err != nil {
				t.Fatal(err)
			}
			js2, report2, folded2 := render(t, back)
			if !bytes.Equal(js2, js) {
				t.Errorf("JSON differs after a round trip:\n%s\nwant:\n%s", js2, js)
			}
			if !bytes.Equal(report2, report) {
				t.Errorf("report differs after a round trip:\n%s\nwant:\n%s", report2, report)
			}
			if !bytes.Equal(folded2, folded) {
				t.Errorf("folded stacks differ after a round trip:\n%s\nwant:\n%s", folded2, folded)
			}
		})
	}
}

// TestHandProfileRendering pins what the renderers make of the hand-built
// profile: attribution to the enclosing symbol, the raw address for a PC
// outside every symbol, the false-sharing flag, and the placeholders for
// a profile without a workload name.
func TestHandProfileRendering(t *testing.T) {
	_, report, folded := render(t, handProfile())
	for _, want := range []string{
		"=== profile: ? / shared-l2 / mxs (2 CPUs, 32B lines) ===",
		"--- hot functions (top 3 of 3) ---",
		"main+0x4",
		"0x00009000",
		"counts",
		"0:rw 1:rw",
		"0>1:2 1>0:1",
		"FALSE-SHARING?",
	} {
		if !bytes.Contains(report, []byte(want)) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	wantFolded := strings.Join([]string{
		"all;shared-l2;?;0x00009000 1",
		"all;shared-l2;loop;0x00001100 11",
		"all;shared-l2;main;0x00001000 14",
		"all;shared-l2;main;0x00001004 8",
	}, "\n") + "\n"
	if string(folded) != wantFolded {
		t.Errorf("folded stacks:\n%s\nwant:\n%s", folded, wantFolded)
	}
}

// TestReadProfileTruncated: JSON cut short is an error, not a partial
// profile.
func TestReadProfileTruncated(t *testing.T) {
	js, _, _ := render(t, handProfile())
	for _, n := range []int{0, 1, len(js) / 2, len(js) - 3} {
		if p, err := prof.ReadProfile(bytes.NewReader(js[:n])); err == nil {
			t.Errorf("ReadProfile of %d of %d bytes returned %+v, want an error", n, len(js), p)
		}
	}
}
