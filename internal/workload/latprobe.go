package workload

import (
	"fmt"
	"math/rand"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/cyc"
)

// LatProbe is a microbenchmark, not one of the paper's applications: a
// dependent pointer chase through a chain of the given size, run on one
// CPU. Because every load's address depends on the previous load's
// value, no latency can be hidden, so cycles-per-iteration measures the
// load-to-use latency of whichever hierarchy level the chain fits in —
// Table 2 measured end-to-end through a CPU model rather than asserted
// against the memory system directly.
type LatProbe struct {
	ChainBytes uint32 // memory the chain spans (power-of-two-ish)
	Iters      int    // chase steps

	prog     *asm.Program
	expected uint32
}

// LatProbeParams configures LatProbe; zero fields take defaults.
type LatProbeParams struct {
	ChainBytes uint32
	Iters      int
}

// NewLatProbe builds the probe; the default chain fits in any L1.
func NewLatProbe(p LatProbeParams) *LatProbe {
	w := &LatProbe{ChainBytes: 8 << 10, Iters: 30000}
	if p.ChainBytes > 0 {
		w.ChainBytes = p.ChainBytes
	}
	if p.Iters > 0 {
		w.Iters = p.Iters
	}
	return w
}

func init() { register("latprobe", func() Workload { return NewLatProbe(LatProbeParams{}) }) }

const latProbeBase = 0x0040_0000 // the chain lives outside the program image

// Name implements Workload.
func (w *LatProbe) Name() string { return "latprobe" }

// Description implements Workload.
func (w *LatProbe) Description() string {
	return "dependent pointer chase: measures load-to-use latency of one hierarchy level"
}

// MemBytes implements Workload.
func (w *LatProbe) MemBytes() uint32 { return MemBytes }

// Threads implements Workload.
func (w *LatProbe) Threads() int { return 1 }

// chain builds a random cyclic permutation over line-spaced slots and
// returns the successor physical address per slot.
func (w *LatProbe) chain() []uint32 {
	const stride = 32 // one slot per cache line
	n := int(w.ChainBytes / stride)
	perm := rand.New(rand.NewSource(99)).Perm(n)
	next := make([]uint32, n)
	for i := 0; i < n; i++ {
		from := perm[i]
		to := perm[(i+1)%n]
		next[from] = latProbeBase + uint32(to)*stride
	}
	return next
}

// Configure implements Workload.
func (w *LatProbe) Configure(m *core.Machine) error {
	b := asm.NewBuilder()
	b.Label("start")
	// Only CPU 0 chases; the rest halt immediately so there is no
	// contention.
	b.BNEZ(asm.A0, "lp_done")
	b.LIU(asm.R1, latProbeBase) // current pointer
	b.LI(asm.R2, int32(w.Iters))
	b.Label("lp_loop")
	b.LW(asm.R1, 0, asm.R1) // the dependent chase
	b.ADDI(asm.R2, asm.R2, -1)
	b.BNEZ(asm.R2, "lp_loop")
	b.LA(asm.R3, "final")
	b.SW(asm.R1, 0, asm.R3)
	b.Label("lp_done")
	b.HALT()
	b.AlignData(4)
	b.DataLabel("final")
	b.Word32(0)

	p, err := b.Assemble(TextBase, DataBase)
	if err != nil {
		return err
	}
	chain := region{"chain", latProbeBase, latProbeBase + int64(w.ChainBytes)}
	if err := checkLayout("latprobe", m, append(spmdRegions(p, m.Cfg.NumCPUs), chain)...); err != nil {
		return err
	}
	w.prog = p
	setupSPMD(m, p, m.Cfg.NumCPUs)

	next := w.chain()
	for slot, succ := range next {
		m.Img.Write32(latProbeBase+uint32(slot)*32, succ)
	}
	// Expected final pointer: follow the chain Iters times from slot 0.
	ptr := uint32(latProbeBase)
	for i := 0; i < w.Iters; i++ {
		ptr = next[(ptr-latProbeBase)/32]
	}
	w.expected = ptr
	return nil
}

// Validate implements Workload.
func (w *LatProbe) Validate(m *core.Machine) error {
	if got := m.Img.Read32(w.prog.Addr("final")); got != w.expected {
		return fmt.Errorf("latprobe: final pointer = %#x, want %#x", got, w.expected)
	}
	return nil
}

// MeasureLoadLatency returns the steady-state cycles per chase
// iteration, minus the 2-cycle loop overhead. It runs the probe twice
// with different iteration counts and takes the slope, which cancels the
// cold-start lap (the first traversal misses all the way to memory
// regardless of the chain size) exactly.
func MeasureLoadLatency(arch core.Arch, model core.CPUModel, chainBytes uint32) (float64, error) {
	slots := int(chainBytes / 32)
	i1 := 2 * slots
	i2 := 4 * slots
	run := func(iters int) (uint64, error) {
		w := NewLatProbe(LatProbeParams{ChainBytes: chainBytes, Iters: iters})
		res, err := Run(w, arch, model, nil)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	c1, err := run(i1)
	if err != nil {
		return 0, err
	}
	c2, err := run(i2)
	if err != nil {
		return 0, err
	}
	perIter := float64(cyc.Sub(c2, c1)) / float64(i2-i1)
	const loopOverhead = 2.0 // addi + bnez under the 1-IPC simple model
	return perIter - loopOverhead, nil
}
