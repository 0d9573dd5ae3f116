package workload

import (
	"strings"
	"testing"

	"cmpsim/internal/core"
)

func TestLatProbeValidates(t *testing.T) {
	for _, arch := range core.Arches() {
		w := NewLatProbe(LatProbeParams{ChainBytes: 4 << 10, Iters: 2000})
		if _, err := Run(w, arch, core.ModelMipsy, nil); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
	}
}

// TestGuestMeasuredTable2 reproduces Table 2 from inside the guest: a
// chain that fits the L1 measures the hit time, one that fits only the
// L2 measures the L2 latency, and one that exceeds the L2 measures
// memory latency — through a running CPU model, not the memory-system
// API.
func TestGuestMeasuredTable2(t *testing.T) {
	type window struct{ lo, hi float64 }
	cases := []struct {
		arch  core.Arch
		chain uint32
		want  window
	}{
		// Hits: 1-cycle L1 everywhere under the simple model.
		{core.SharedL1, 8 << 10, window{0.5, 2}},
		{core.SharedL2, 8 << 10, window{0.5, 2}},
		{core.SharedMem, 8 << 10, window{0.5, 2}},
		// L2 level: 256KB misses every L1 but fits every L2.
		// Uniprocessor-style L2: ~11 cycles; crossbar L2: ~15.
		{core.SharedL1, 256 << 10, window{9, 14}},
		{core.SharedL2, 256 << 10, window{13, 18}},
		{core.SharedMem, 256 << 10, window{9, 14}},
		// Memory: 4MB exceeds the 2MB shared L2 and 512KB private L2s.
		{core.SharedL1, 4 << 20, window{55, 72}},
		{core.SharedL2, 4 << 20, window{58, 76}},
		{core.SharedMem, 4 << 20, window{55, 72}},
	}
	for _, c := range cases {
		lat, err := MeasureLoadLatency(c.arch, core.ModelMipsy, c.chain)
		if err != nil {
			t.Fatalf("%s/%d: %v", c.arch, c.chain, err)
		}
		if lat < c.want.lo || lat > c.want.hi {
			t.Errorf("%s with %dKB chain: measured %.2f cycles/load, want [%.0f,%.0f]",
				c.arch, c.chain>>10, lat, c.want.lo, c.want.hi)
		}
	}
}

// TestMXSHidesPointerChaseLessThanILP: under the OoO model the dependent
// chase cannot be hidden, so the measured latency stays near the Mipsy
// value (a consistency check on the two models' memory paths).
func TestMXSChaseLatencyMatchesMipsy(t *testing.T) {
	mip, err := MeasureLoadLatency(core.SharedMem, core.ModelMipsy, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	ooo, err := MeasureLoadLatency(core.SharedMem, core.ModelMXS, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ooo / mip
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("OoO chase latency %.2f vs in-order %.2f: a dependent chase should not diverge (ratio %.2f)",
			ooo, mip, ratio)
	}
}

// TestNewQuickErrorListsQuickVariants: latprobe has no quick variant,
// so asking for one must fail and name only the workloads that do.
func TestNewQuickErrorListsQuickVariants(t *testing.T) {
	_, err := NewQuick("latprobe")
	if err == nil {
		t.Fatal("NewQuick(latprobe) succeeded; latprobe has no quick variant")
	}
	_, have, ok := strings.Cut(err.Error(), "(have")
	if !ok {
		t.Fatalf("error lists no alternatives: %v", err)
	}
	if strings.Contains(have, "latprobe") {
		t.Errorf("error lists latprobe as a quick variant: %v", err)
	}
	for _, n := range []string{"eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "pmake"} {
		if !strings.Contains(have, n) {
			t.Errorf("error does not list quick variant %s: %v", n, err)
		}
	}
}
