package workload

import (
	"fmt"
	"math/rand"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/guestlib"
)

// Ear reproduces the SUIF-parallelized SPEC92 ear benchmark (Section
// 3.2.2): an inner-ear model built from a cascade of filter channels.
// The compiler parallelizes the very short per-sample loops, giving an
// extremely small grain size: every sample, each CPU filters its four
// channels (a few FP operations each) and then synchronizes, and each
// channel's input is the previous channel's output from the previous
// sample — producer-consumer sharing that crosses CPUs at every cascade
// boundary. The working set is tiny (everything fits in any L1), so the
// paper's Figure 8 shows a negligible L1 miss rate on the shared-L1
// architecture but the highest invalidation miss rate of all the
// applications on the private-L1 architectures.
type Ear struct {
	Channels int // cascade length; owned NumCPUs ways (default 16)
	Samples  int
	NumCPUs  int

	prog *asm.Program
	ref  *earState
	seed int64
}

// EarParams configures Ear; zero fields take defaults.
type EarParams struct {
	Channels, Samples int
}

// NewEar builds the workload; zero params mean the default scale.
func NewEar(p EarParams) *Ear {
	w := &Ear{Channels: 32, Samples: 2500, NumCPUs: 4, seed: 92}
	if p.Channels > 0 {
		w.Channels = p.Channels
	}
	if p.Samples > 0 {
		w.Samples = p.Samples
	}
	return w
}

func init() { register("ear", func() Workload { return NewEar(EarParams{}) }) }

// Name implements Workload.
func (w *Ear) Name() string { return "ear" }

// Description implements Workload.
func (w *Ear) Description() string {
	return "SUIF-parallelized ear: extremely fine grain, cascade producer-consumer sharing"
}

// MemBytes implements Workload.
func (w *Ear) MemBytes() uint32 { return MemBytes }

// Threads implements Workload.
func (w *Ear) Threads() int { return w.NumCPUs }

// earState is the Go mirror.
type earState struct {
	sig    []float64
	a, bc  []float64 // filter coefficients per channel
	state  []float64 // one-pole state per channel
	out    [2][]float64
	energy []float64
}

func (w *Ear) initialState() *earState {
	rng := rand.New(rand.NewSource(w.seed))
	st := &earState{
		sig:    make([]float64, w.Samples),
		a:      make([]float64, w.Channels),
		bc:     make([]float64, w.Channels),
		state:  make([]float64, w.Channels*earStages),
		energy: make([]float64, w.Channels),
	}
	st.out[0] = make([]float64, w.Channels+1)
	st.out[1] = make([]float64, w.Channels+1)
	for i := range st.sig {
		st.sig[i] = rng.Float64()*2 - 1
	}
	for c := 0; c < w.Channels; c++ {
		st.a[c] = 0.3 + 0.4*float64(c)/float64(w.Channels)
		st.bc[c] = 0.5 - 0.3*float64(c)/float64(w.Channels)
	}
	return st
}

// earStages is the depth of each channel's internal filter cascade (the
// original ear uses cascades of second-order sections per channel).
const earStages = 4

// advance mirrors the guest exactly: per sample, CPU0 latches the input
// into cur[0], then every channel c runs its 4-stage filter cascade on
// prev[c] and writes cur[c+1] — all reads hit the previous sample's
// buffer, so parallel channel order does not matter.
func (w *Ear) advance(st *earState) {
	for s := 0; s < w.Samples; s++ {
		prev := st.out[s%2]
		cur := st.out[(s+1)%2]
		cur[0] = st.sig[s]
		for c := 0; c < w.Channels; c++ {
			x := prev[c]
			for k := 0; k < earStages; k++ {
				y := st.a[c]*x + st.bc[c]*st.state[c*earStages+k]
				st.state[c*earStages+k] = y
				x = y
			}
			cur[c+1] = x
			st.energy[c] += x * x
		}
	}
}

// Configure implements Workload.
func (w *Ear) Configure(m *core.Machine) error {
	w.NumCPUs = m.Cfg.NumCPUs
	if w.Channels%w.NumCPUs != 0 {
		return fmt.Errorf("ear: channels (%d) must divide by %d CPUs", w.Channels, w.NumCPUs)
	}
	per := w.Channels / w.NumCPUs
	b := asm.NewBuilder()

	// R20 tid, R21 sample, R22 samples, R23 prev base, R24 cur base,
	// R25 my first channel, R18 sig base, R19 coef bases via LA.
	b.Label("start")
	b.MOVE(asm.R20, asm.A0)
	b.LI(asm.R21, 0)
	b.LI(asm.R22, int32(w.Samples))
	b.LI(asm.R8, int32(per))
	b.MUL(asm.R25, asm.R20, asm.R8)
	b.LA(asm.R18, "sig")

	b.Label("ear_sample")
	// Buffer select on sample parity: prev = out[s%2], cur = out[1-s%2].
	b.LA(asm.R23, "outA")
	b.LA(asm.R24, "outB")
	b.ANDI(asm.R8, asm.R21, 1)
	b.BEQZ(asm.R8, "ear_nosw")
	b.MOVE(asm.R9, asm.R23)
	b.MOVE(asm.R23, asm.R24)
	b.MOVE(asm.R24, asm.R9)
	b.Label("ear_nosw")

	// CPU0 latches the input sample into cur[0].
	b.BNEZ(asm.R20, "ear_chans")
	b.SLLI(asm.R9, asm.R21, 3)
	b.ADD(asm.R9, asm.R18, asm.R9)
	b.LD(asm.F0, 0, asm.R9)
	b.SD(asm.F0, 0, asm.R24)
	b.Label("ear_chans")

	// My channels: c in [R25, R25+per).
	b.MOVE(asm.R16, asm.R25)
	b.ADDI(asm.R17, asm.R25, int32(per))
	b.Label("ear_c")
	b.SLLI(asm.R9, asm.R16, 3)
	// x = prev[c]
	b.ADD(asm.R10, asm.R23, asm.R9)
	b.LD(asm.F0, 0, asm.R10)
	// coefficients
	b.LA(asm.R11, "coefA")
	b.ADD(asm.R11, asm.R11, asm.R9)
	b.LD(asm.F1, 0, asm.R11)
	b.LA(asm.R11, "coefB")
	b.ADD(asm.R11, asm.R11, asm.R9)
	b.LD(asm.F2, 0, asm.R11)
	// Four-stage cascade: state base = state + c*earStages*8.
	b.LA(asm.R12, "state")
	b.SLLI(asm.R10, asm.R16, 3+2) // c * 8 * earStages
	b.ADD(asm.R12, asm.R12, asm.R10)
	for k := 0; k < earStages; k++ {
		b.LD(asm.F3, int32(8*k), asm.R12)
		b.FMULD(asm.F4, asm.F1, asm.F0) // a*x
		b.FMULD(asm.F5, asm.F2, asm.F3) // b*state_k
		b.FADDD(asm.F4, asm.F4, asm.F5)
		b.SD(asm.F4, int32(8*k), asm.R12) // state_k = y
		b.FMOV(asm.F0, asm.F4)            // x = y for the next stage
	}
	// cur[c+1] = y
	b.ADD(asm.R13, asm.R24, asm.R9)
	b.SD(asm.F4, 8, asm.R13)
	// energy[c] += y*y
	b.LA(asm.R14, "energy")
	b.ADD(asm.R14, asm.R14, asm.R9)
	b.LD(asm.F5, 0, asm.R14)
	b.FMULD(asm.F6, asm.F4, asm.F4)
	b.FADDD(asm.F5, asm.F5, asm.F6)
	b.SD(asm.F5, 0, asm.R14)
	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R17, "ear_c")

	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)
	b.ADDI(asm.R21, asm.R21, 1)
	b.BLT(asm.R21, asm.R22, "ear_sample")
	b.HALT()

	guestlib.EmitRuntime(b)

	b.AlignData(32) // line-align so each CPU's four outputs share a line
	b.DataLabel("outA")
	b.Zero(uint32(8 * (w.Channels + 1)))
	b.AlignData(32)
	b.DataLabel("outB")
	b.Zero(uint32(8 * (w.Channels + 1)))
	b.AlignData(32)
	b.DataLabel("state")
	b.Zero(uint32(8 * w.Channels * earStages))
	b.AlignData(32)
	b.DataLabel("energy")
	b.Zero(uint32(8 * w.Channels))
	b.AlignData(8)
	b.DataLabel("coefA")
	b.Zero(uint32(8 * w.Channels))
	b.DataLabel("coefB")
	b.Zero(uint32(8 * w.Channels))
	b.DataLabel("sig")
	b.Zero(uint32(8 * w.Samples))
	guestlib.EmitBarrierData(b, "bar", w.NumCPUs)

	p, err := b.Assemble(TextBase, DataBase)
	if err != nil {
		return err
	}
	if err := checkLayout("ear", m, spmdRegions(p, w.NumCPUs)...); err != nil {
		return err
	}
	w.prog = p
	setupSPMD(m, p, w.NumCPUs)

	st := w.initialState()
	for i, v := range st.sig {
		m.Img.WriteF64(p.Addr("sig")+uint32(8*i), v)
	}
	for c := 0; c < w.Channels; c++ {
		m.Img.WriteF64(p.Addr("coefA")+uint32(8*c), st.a[c])
		m.Img.WriteF64(p.Addr("coefB")+uint32(8*c), st.bc[c])
	}
	w.ref = st
	w.advance(st)
	return nil
}

// Validate implements Workload.
func (w *Ear) Validate(m *core.Machine) error {
	st := w.ref
	for c := 0; c < w.Channels; c++ {
		if got := m.Img.ReadF64(w.prog.Addr("energy") + uint32(8*c)); got != st.energy[c] {
			return fmt.Errorf("ear: energy[%d] = %v, want %v", c, got, st.energy[c])
		}
	}
	for i := 0; i < w.Channels*earStages; i++ {
		if got := m.Img.ReadF64(w.prog.Addr("state") + uint32(8*i)); got != st.state[i] {
			return fmt.Errorf("ear: state[%d] = %v, want %v", i, got, st.state[i])
		}
	}
	// Final output buffers.
	labels := [2]string{"outA", "outB"}
	for p := 0; p < 2; p++ {
		for i := 0; i <= w.Channels; i++ {
			if got := m.Img.ReadF64(w.prog.Addr(labels[p]) + uint32(8*i)); got != st.out[p][i] {
				return fmt.Errorf("ear: out[%d][%d] = %v, want %v", p, i, got, st.out[p][i])
			}
		}
	}
	return nil
}
