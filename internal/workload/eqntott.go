package workload

import (
	"fmt"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/guestlib"
)

// Eqntott reproduces the paper's parallelized SPEC92 Eqntott kernel
// (Section 3.2.1): the bit-vector comparison routine that dominates the
// benchmark. A master processor updates the vectors being compared, then
// all four processors compare a quarter of the vector each and merge
// their counts — fine-grained parallelism with a high communication to
// computation ratio. The working set (two small vectors) fits easily in
// any of the L1 caches, so the architectures are separated almost
// entirely by communication latency, as in Figure 4.
type Eqntott struct {
	Words   int // words per bit vector (default 256 = 1 KB)
	Iters   int // comparison episodes
	NumCPUs int

	prog     *asm.Program
	expected uint32
}

// EqntottParams configures Eqntott; zero fields take defaults.
type EqntottParams struct {
	Words, Iters int
}

// NewEqntott builds the workload; zero params mean the default scale.
func NewEqntott(p EqntottParams) *Eqntott {
	w := &Eqntott{Words: 256, Iters: 400, NumCPUs: 4}
	if p.Words > 0 {
		w.Words = p.Words
	}
	if p.Iters > 0 {
		w.Iters = p.Iters
	}
	return w
}

func init() { register("eqntott", func() Workload { return NewEqntott(EqntottParams{}) }) }

// Name implements Workload.
func (w *Eqntott) Name() string { return "eqntott" }

// Description implements Workload.
func (w *Eqntott) Description() string {
	return "SPEC92 eqntott bit-vector compare: fine-grained master/slave sharing"
}

// MemBytes implements Workload.
func (w *Eqntott) MemBytes() uint32 { return MemBytes }

// Threads implements Workload.
func (w *Eqntott) Threads() int { return w.NumCPUs }

// reference mirrors the guest computation exactly and returns the grand
// total of equal-word counts over all episodes. Each episode the master
// produces a fresh pair of vectors — as in the paper, where the master
// transmits new vector copies to the slaves every comparison.
func (w *Eqntott) reference() uint32 {
	vecA := make([]uint32, w.Words)
	vecB := make([]uint32, w.Words)
	var grand uint32
	for iter := 0; iter < w.Iters; iter++ {
		for k := 0; k < w.Words; k++ {
			vecA[k] = uint32(iter + k)
			if k%3 == 0 {
				vecB[k] = uint32(iter + k + 1)
			} else {
				vecB[k] = uint32(iter + k)
			}
		}
		for i := 0; i < w.Words; i++ {
			if vecA[i] == vecB[i] {
				grand++
			}
		}
	}
	return grand
}

// Configure implements Workload.
func (w *Eqntott) Configure(m *core.Machine) error {
	w.NumCPUs = m.Cfg.NumCPUs // the decomposition follows the machine's CPU count
	if w.Words%w.NumCPUs != 0 {
		return fmt.Errorf("eqntott: words (%d) must divide by %d CPUs", w.Words, w.NumCPUs)
	}
	quarter := w.Words / w.NumCPUs
	b := asm.NewBuilder()

	// Register plan: R20=tid, R21=iter, R22=iter limit, R16..R19 master
	// temps, R8..R15 scratch.
	b.Label("start")
	b.MOVE(asm.R20, asm.A0)
	b.LI(asm.R21, 0)
	b.LI(asm.R22, int32(w.Iters))

	b.Label("eq_main")
	b.BNEZ(asm.R20, "eq_sync") // slaves go straight to the barrier

	// --- master: produce a fresh pair of vectors (the "transmit") ---
	b.LI(asm.R16, 0) // k
	b.LI(asm.R17, int32(w.Words))
	b.LA(asm.R11, "vecA")
	b.LA(asm.R12, "vecB")
	b.Label("eq_wr")
	// vecA[k] = iter + k
	b.ADD(asm.R10, asm.R21, asm.R16)
	b.SW(asm.R10, 0, asm.R11)
	// vecB[k] = iter + k (+1 when k%3 == 0, the planted mismatches)
	b.LI(asm.R8, 3)
	b.REM(asm.R9, asm.R16, asm.R8)
	b.BNEZ(asm.R9, "eq_wb")
	b.ADDI(asm.R10, asm.R10, 1)
	b.Label("eq_wb")
	b.SW(asm.R10, 0, asm.R12)
	b.ADDI(asm.R11, asm.R11, 4)
	b.ADDI(asm.R12, asm.R12, 4)
	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R17, "eq_wr")

	// --- all: barrier, then compare this CPU's quarter ---
	b.Label("eq_sync")
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)

	// cnt (R14) = number of equal words in [tid*quarter, (tid+1)*quarter)
	b.LI(asm.R14, 0)
	b.LI(asm.R8, int32(quarter))
	b.MUL(asm.R9, asm.R20, asm.R8) // start index
	b.SLLI(asm.R9, asm.R9, 2)
	b.LA(asm.R10, "vecA")
	b.ADD(asm.R10, asm.R10, asm.R9)
	b.LA(asm.R11, "vecB")
	b.ADD(asm.R11, asm.R11, asm.R9)
	b.LI(asm.R12, int32(quarter)) // remaining
	b.Label("eq_cmp")
	b.LW(asm.R13, 0, asm.R10)
	b.LW(asm.R15, 0, asm.R11)
	b.BNE(asm.R13, asm.R15, "eq_ne")
	b.ADDI(asm.R14, asm.R14, 1)
	b.Label("eq_ne")
	b.ADDI(asm.R10, asm.R10, 4)
	b.ADDI(asm.R11, asm.R11, 4)
	b.ADDI(asm.R12, asm.R12, -1)
	b.BNEZ(asm.R12, "eq_cmp")

	// grand += cnt, atomically.
	b.LA(asm.R8, "grand")
	b.Label("eq_add")
	b.LL(asm.R9, 0, asm.R8)
	b.ADD(asm.R9, asm.R9, asm.R14)
	b.SC(asm.R9, 0, asm.R8)
	b.BEQZ(asm.R9, "eq_add")

	// Barrier again so the master does not start rewriting while slaves
	// still compare.
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)

	b.ADDI(asm.R21, asm.R21, 1)
	b.BLT(asm.R21, asm.R22, "eq_main")
	b.HALT()

	guestlib.EmitRuntime(b)

	b.AlignData(4)
	b.DataLabel("vecA")
	b.Zero(uint32(4 * w.Words))
	b.DataLabel("vecB")
	b.Zero(uint32(4 * w.Words))
	b.DataLabel("grand")
	b.Word32(0)
	guestlib.EmitBarrierData(b, "bar", w.NumCPUs)

	p, err := b.Assemble(TextBase, DataBase)
	if err != nil {
		return err
	}
	if err := checkLayout("eqntott", m, spmdRegions(p, w.NumCPUs)...); err != nil {
		return err
	}
	w.prog = p
	w.expected = w.reference()
	setupSPMD(m, p, w.NumCPUs)
	return nil
}

// Validate implements Workload.
func (w *Eqntott) Validate(m *core.Machine) error {
	got := m.Img.Read32(w.prog.Addr("grand"))
	if got != w.expected {
		return fmt.Errorf("eqntott: grand total = %d, want %d", got, w.expected)
	}
	return nil
}
