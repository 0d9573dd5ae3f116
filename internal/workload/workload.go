// Package workload implements the paper's seven benchmarks as real
// guest programs for the simulator: the hand-parallelized applications
// (Eqntott, MP3D, Ocean, Volpack), the compiler-parallelized ones (Ear,
// FFT), and the multiprogramming + OS workload (pmake). Each workload
// builds its program with the assembler DSL, lays out its data to
// reproduce the paper's working-set and sharing characteristics, and
// validates the guest's numeric results against a Go reference
// implementation, so every simulation run is also a correctness check
// of the whole simulator stack.
package workload

import (
	"fmt"
	"sort"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/cpu"
	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
	"cmpsim/internal/memsys"
)

// Standard guest memory layout for the parallel applications (the
// multiprogramming workload defines its own segmented layout).
const (
	TextBase  = 0x0000_1000
	DataBase  = 0x0010_0000 // 1 MiB: far enough for any program text
	StackTop  = 0x01f0_0000 // stacks grow down from here
	StackSize = 0x0001_0000 // 64 KiB per thread
	MemBytes  = 0x0200_0000 // 32 MiB physical memory
)

// Workload is one benchmark: it configures a machine (programs,
// contexts, trap handler) and validates the results afterwards.
type Workload interface {
	// Name is the registry key ("eqntott", "mp3d", ...).
	Name() string
	// Description is a one-line summary for the CLI.
	Description() string
	// MemBytes is the physical memory the machine needs.
	MemBytes() uint32
	// Threads is the number of contexts the workload creates.
	Threads() int
	// Configure loads programs and creates contexts on m.
	Configure(m *core.Machine) error
	// Validate checks the guest's results against the Go reference.
	Validate(m *core.Machine) error
}

// builders maps workload names to default-parameter constructors.
var builders = map[string]func() Workload{}

// register adds a constructor; called from each workload's init.
func register(name string, f func() Workload) { builders[name] = f }

// New returns the named workload with the paper-scaled default
// parameters.
func New(name string) (Workload, error) {
	f, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return f(), nil
}

// quickBuilders maps the workloads that have one to their reduced
// data sets: large enough to exercise every architecture's sharing
// patterns, small enough for smoke runs.
var quickBuilders = map[string]func() Workload{
	"eqntott": func() Workload { return NewEqntott(EqntottParams{Words: 128, Iters: 60}) },
	"mp3d":    func() Workload { return NewMP3D(MP3DParams{Particles: 2048, Steps: 2}) },
	"ocean":   func() Workload { return NewOcean(OceanParams{N: 66, FineIter: 3, CoarseIt: 2}) },
	"volpack": func() Workload { return NewVolpack(VolpackParams{Size: 32, Depth: 16}) },
	"ear":     func() Workload { return NewEar(EarParams{Samples: 400}) },
	"fft":     func() Workload { return NewFFT(FFTParams{N: 64, Batches: 16}) },
	"pmake":   func() Workload { return NewPmake(PmakeParams{Procs: 6, Funcs: 48, Passes: 4}) },
}

// NewQuick returns the named workload with its reduced data sets. This
// is the single source of the quick parameters used by `experiments
// -quick`, `cmpsim -quick`, and the sanitized smoke tests in make check.
func NewQuick(name string) (Workload, error) {
	f, ok := quickBuilders[name]
	if !ok {
		return nil, fmt.Errorf("workload: no quick variant of %q (have %v)", name, sortedNames(quickBuilders))
	}
	return f(), nil
}

// Names lists registered workloads in sorted order.
func Names() []string { return sortedNames(builders) }

func sortedNames(m map[string]func() Workload) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// setupSPMD loads p and creates n contexts starting at "start" with the
// thread id in A0, each with its own stack, sharing one identity address
// space (threads of a single parallel process).
func setupSPMD(m *core.Machine, p *asm.Program, n int) {
	m.LoadProgram(p, 0)
	for i := 0; i < n; i++ {
		ctx := &cpu.Context{
			Space: mem.Identity{Limit: m.Img.Size()},
			TID:   i,
			PC:    p.Addr("start"),
		}
		ctx.Regs[isa.RegSP] = StackTop - uint32(i)*StackSize
		ctx.Regs[isa.RegArg0] = uint32(i)
		m.AddContext(ctx)
	}
}

// region is a range [start, end) of guest physical memory that a
// workload fills or hands to the guest.
type region struct {
	name       string
	start, end int64
}

// spmdRegions are the regions setupSPMD lays out for p run by n
// threads: the text, the data section and the n stacks below StackTop.
func spmdRegions(p *asm.Program, n int) []region {
	return []region{
		{"text", int64(p.TextBase), int64(p.TextEnd())},
		{"data", int64(p.DataBase), int64(p.DataEnd())},
		{"stacks", StackTop - int64(n)*StackSize, StackTop},
	}
}

// checkLayout returns an error if a region does not fit in m's memory
// or two regions overlap. Every Configure calls it before it writes
// anything, so a workload scaled past its layout is an error, not a
// panic or a guest that silently overwrites its own data.
func checkLayout(name string, m *core.Machine, rs ...region) error {
	for i, r := range rs {
		if r.start < 0 || r.end > int64(m.Img.Size()) {
			return fmt.Errorf("%s: %s [%#x, %#x) does not fit in %d bytes of memory", name, r.name, r.start, r.end, m.Img.Size())
		}
		for _, o := range rs[:i] {
			if r.start < o.end && o.start < r.end {
				return fmt.Errorf("%s: %s [%#x, %#x) overlaps %s [%#x, %#x)", name, r.name, r.start, r.end, o.name, o.start, o.end)
			}
		}
	}
	return nil
}

// Run builds a machine for (workload, arch, model), runs it to
// completion, validates the results, and returns the run result. It is
// the one-call entry point used by the CLI, the benchmarks and the
// examples. cfg overrides the memory-system parameters; nil uses the
// paper's defaults.
func Run(w Workload, arch core.Arch, model core.CPUModel, cfg *memsys.Config) (*core.RunResult, error) {
	c := memsys.DefaultConfig()
	if cfg != nil {
		c = *cfg
	}
	m, err := core.NewMachine(arch, model, c, w.MemBytes())
	if err != nil {
		return nil, err
	}
	if err := w.Configure(m); err != nil {
		return nil, fmt.Errorf("workload %s: configure: %w", w.Name(), err)
	}
	res, err := m.Run(maxCycles)
	if err != nil {
		return nil, fmt.Errorf("workload %s on %s: %w", w.Name(), arch, err)
	}
	if err := w.Validate(m); err != nil {
		return nil, fmt.Errorf("workload %s on %s: validation: %w", w.Name(), arch, err)
	}
	if res.Profile != nil {
		res.Profile.Workload = w.Name()
	}
	return res, nil
}

const maxCycles = 2_000_000_000
