package workload

import (
	"testing"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
)

// TestOversizedWorkloadsFailCleanly scales every workload's data-size
// parameters (not its iteration counts) past the canonical ones. At
// twice the canonical size a workload either refuses in Configure or
// runs and validates; far past it, where its regions overlap or leave
// memory, it must refuse. Neither may panic: a layout error has to
// surface before Configure writes anything into the image.
func TestOversizedWorkloadsFailCleanly(t *testing.T) {
	for _, tc := range []struct {
		name     string
		twice    func() Workload
		tooLarge func() Workload
	}{
		{"eqntott",
			func() Workload { return NewEqntott(EqntottParams{Words: 512}) },
			func() Workload { return NewEqntott(EqntottParams{Words: 4 << 20, Iters: 1}) }},
		{"mp3d",
			func() Workload { return NewMP3D(MP3DParams{Particles: 32768, Grid: 32}) },
			func() Workload { return NewMP3D(MP3DParams{Particles: 512, Steps: 1, Grid: 80}) }},
		{"ocean",
			func() Workload { return NewOcean(OceanParams{N: 258}) },
			func() Workload { return NewOcean(OceanParams{N: 1282, FineIter: 1, CoarseIt: 1}) }},
		{"volpack",
			func() Workload { return NewVolpack(VolpackParams{Size: 128, Depth: 64}) },
			func() Workload { return NewVolpack(VolpackParams{Size: 512, Depth: 4}) }},
		{"ear",
			func() Workload { return NewEar(EarParams{Channels: 64, Samples: 5000}) },
			func() Workload { return NewEar(EarParams{Channels: 4, Samples: 4 << 20}) }},
		{"fft",
			func() Workload { return NewFFT(FFTParams{N: 512, Batches: 96}) },
			func() Workload { return NewFFT(FFTParams{N: 256, Batches: 8192}) }},
		{"pmake",
			func() Workload { return NewPmake(PmakeParams{Procs: 16, Funcs: 192}) },
			func() Workload { return NewPmake(PmakeParams{Procs: 64, Funcs: 4, Passes: 1}) }},
	} {
		t.Run(tc.name+"/twice", func(t *testing.T) {
			if testing.Short() {
				t.Skip("runs paper-scale workloads at twice their data size")
			}
			w := tc.twice()
			m, err := core.NewMachine(core.SharedMem, core.ModelMipsy, memsys.DefaultConfig(), w.MemBytes())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Configure(m); err != nil {
				t.Logf("refused: %v", err)
				return
			}
			if _, err := m.Run(maxCycles); err != nil {
				t.Fatal(err)
			}
			if err := w.Validate(m); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(tc.name+"/too-large", func(t *testing.T) {
			w := tc.tooLarge()
			if err := w.Configure(newTestMachine(t, core.SharedMem)); err == nil {
				t.Fatal("Configure accepted a layout that does not fit")
			} else {
				t.Logf("refused: %v", err)
			}
		})
	}
}
