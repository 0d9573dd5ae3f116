package workload

import (
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
)

func smallMP3D() *MP3D {
	return NewMP3D(MP3DParams{Particles: 512, Steps: 2, Grid: 8})
}

func TestMP3DValidatesOnAllArchitectures(t *testing.T) {
	for _, arch := range core.Arches() {
		t.Run(string(arch), func(t *testing.T) {
			if _, err := Run(smallMP3D(), arch, core.ModelMipsy, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMP3DRejectsParticlesOverlappingAuxTable(t *testing.T) {
	// The aux table starts mp3dAuxOffset bytes above the particle
	// array; a larger array would overwrite it and only fail Validate,
	// after the whole run.
	fits := mp3dAuxOffset / mp3dRecBytes / 4 * 4
	for _, tc := range []struct {
		particles int
		ok        bool
	}{{fits, true}, {fits + 4, false}} {
		w := NewMP3D(MP3DParams{Particles: tc.particles, Steps: 1})
		m, err := core.NewMachine(core.SharedMem, core.ModelMipsy, memsys.DefaultConfig(), w.MemBytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Configure(m); (err == nil) != tc.ok {
			t.Errorf("Configure with %d particles: err = %v, want ok = %v", tc.particles, err, tc.ok)
		}
	}
}

func TestMP3DL1MissRatesDominatedByReplacements(t *testing.T) {
	// Section 4.1: "the L1 miss rates of all three architectures is
	// dominated by replacement misses" despite the communication volume.
	w := NewMP3D(MP3DParams{Particles: 4096, Steps: 2, Grid: 8})
	r, err := Run(w, core.SharedMem, core.ModelMipsy, nil)
	if err != nil {
		t.Fatal(err)
	}
	l1 := r.MemReport.L1D
	if l1.ReplMisses() <= l1.InvMisses {
		t.Errorf("replacement misses (%d) should dominate invalidation misses (%d)",
			l1.ReplMisses(), l1.InvMisses)
	}
}

func TestMP3DL2AssocAblation(t *testing.T) {
	// The Section 4.1 experiment: with a 4-way L2 the shared-L1
	// architecture's L2 miss rate drops sharply because the particle and
	// properties streams stop conflicting.
	cfgDM := memsys.DefaultConfig()
	rDM, err := Run(NewMP3D(MP3DParams{Particles: 4096, Steps: 2, Grid: 8}), core.SharedL1, core.ModelMipsy, &cfgDM)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := memsys.DefaultConfig()
	cfg4.L2Assoc = 4
	r4, err := Run(NewMP3D(MP3DParams{Particles: 4096, Steps: 2, Grid: 8}), core.SharedL1, core.ModelMipsy, &cfg4)
	if err != nil {
		t.Fatal(err)
	}
	dm := rDM.MemReport.L2.MissRate()
	fw := r4.MemReport.L2.MissRate()
	if fw >= dm {
		t.Errorf("4-way L2 miss rate (%.3f) should be below direct-mapped (%.3f)", fw, dm)
	}
	if rDM.Cycles <= r4.Cycles {
		t.Errorf("direct-mapped run (%d cycles) should be slower than 4-way (%d)", rDM.Cycles, r4.Cycles)
	}
}
