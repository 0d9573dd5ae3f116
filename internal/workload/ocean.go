package workload

import (
	"fmt"
	"math/rand"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/guestlib"
)

// Ocean reproduces the SPLASH2 Ocean kernel (Section 3.2.1): a multigrid
// solver over an n x n grid where each processor owns a square subgrid
// and communicates only at subgrid boundaries. The per-CPU working set
// (a 65x65-ish quadrant of doubles) exceeds every L1 in the study, so
// all three architectures suffer large L1 replacement miss rates and the
// bandwidth of the L1-L2 path dominates — which is what penalizes the
// shared-L2 architecture's narrower, higher-latency, write-through-
// loaded L2 (Figure 6).
type Ocean struct {
	N        int // fine grid edge including boundary; interior N-2
	FineIter int
	CoarseIt int
	NumCPUs  int

	prog *asm.Program
	refA []float64 // expected final fine grid
	refC []float64 // expected final coarse grid
	seed int64
}

// OceanParams configures Ocean; zero fields take defaults.
type OceanParams struct {
	N, FineIter, CoarseIt int
}

// NewOcean builds the workload; zero params mean the default scale
// (the paper's 130x130 data set).
func NewOcean(p OceanParams) *Ocean {
	w := &Ocean{N: 130, FineIter: 6, CoarseIt: 4, NumCPUs: 4, seed: 26}
	if p.N > 0 {
		w.N = p.N
	}
	if p.FineIter > 0 {
		w.FineIter = p.FineIter
	}
	if p.CoarseIt > 0 {
		w.CoarseIt = p.CoarseIt
	}
	return w
}

func init() { register("ocean", func() Workload { return NewOcean(OceanParams{}) }) }

// Name implements Workload.
func (w *Ocean) Name() string { return "ocean" }

// Description implements Workload.
func (w *Ocean) Description() string {
	return "SPLASH2 Ocean multigrid: big per-CPU working sets, boundary-only sharing"
}

// MemBytes implements Workload.
func (w *Ocean) MemBytes() uint32 { return MemBytes }

// Threads implements Workload.
func (w *Ocean) Threads() int { return w.NumCPUs }

func (w *Ocean) coarseN() int { return w.N/2 + 1 }

// reference runs the Go mirror: FineIter Jacobi sweeps on the fine grid,
// restriction to the coarse grid, CoarseIt sweeps there, and a blend
// back into the fine grid, all in the guest's FP operation order.
func (w *Ocean) reference(a0 []float64) (fine, coarse []float64) {
	n, m := w.N, w.coarseN()
	a := append([]float64(nil), a0...)
	b := make([]float64, n*n)
	// dst boundary mirrors src boundary (never written by sweeps).
	for i := 0; i < n; i++ {
		b[i] = a[i]
		b[(n-1)*n+i] = a[(n-1)*n+i]
		b[i*n] = a[i*n]
		b[i*n+n-1] = a[i*n+n-1]
	}
	src, dst := a, b
	for t := 0; t < w.FineIter; t++ {
		jacobi(src, dst, n)
		src, dst = dst, src
	}
	fine = src // latest values

	c := make([]float64, m*m)
	d := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			fi, fj := 2*i, 2*j
			if fi > n-1 {
				fi = n - 1
			}
			if fj > n-1 {
				fj = n - 1
			}
			c[i*m+j] = fine[fi*n+fj]
			d[i*m+j] = c[i*m+j] // boundary carry-over for the coarse sweeps
		}
	}
	cs, cd := c, d
	for t := 0; t < w.CoarseIt; t++ {
		jacobi(cs, cd, m)
		cs, cd = cd, cs
	}
	coarse = cs

	for i := 1; i < m-1; i++ {
		for j := 1; j < m-1; j++ {
			fi, fj := 2*i, 2*j
			fine[fi*n+fj] = 0.5 * (fine[fi*n+fj] + coarse[i*m+j])
		}
	}
	return fine, coarse
}

// jacobi performs one 5-point sweep over the interior, in the guest's
// exact FP order: ((((c+up)+down)+left)+right)*0.2.
func jacobi(src, dst []float64, n int) {
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			v := src[i*n+j]
			v += src[(i-1)*n+j]
			v += src[(i+1)*n+j]
			v += src[i*n+j-1]
			v += src[i*n+j+1]
			dst[i*n+j] = v * 0.2
		}
	}
}

// emitSweep emits one parallel Jacobi sweep over [r0,r1) x [c0,c1) rows
// and columns held in R16 (i) / R17 (j). R18 = src base, R19 = dst base,
// R25 = row bytes. F10 holds 0.2.
func (w *Ocean) emitSweep(b *asm.Builder, tag string, n int) {
	rowBytes := int32(8 * n)
	b.Label(tag + "_ri")
	// R14 = src + i*rowBytes + c0*8 ; R15 = dst + ...
	b.LI(asm.R8, rowBytes)
	b.MUL(asm.R9, asm.R16, asm.R8)
	b.ADD(asm.R14, asm.R18, asm.R9)
	b.ADD(asm.R15, asm.R19, asm.R9)
	b.SLLI(asm.R9, asm.R12, 3) // c0*8
	b.ADD(asm.R14, asm.R14, asm.R9)
	b.ADD(asm.R15, asm.R15, asm.R9)
	b.MOVE(asm.R17, asm.R12) // j = c0
	b.Label(tag + "_rj")
	b.LD(asm.F0, 0, asm.R14)
	b.LD(asm.F1, int32(-rowBytes), asm.R14)
	b.FADDD(asm.F0, asm.F0, asm.F1)
	b.LD(asm.F1, rowBytes, asm.R14)
	b.FADDD(asm.F0, asm.F0, asm.F1)
	b.LD(asm.F1, -8, asm.R14)
	b.FADDD(asm.F0, asm.F0, asm.F1)
	b.LD(asm.F1, 8, asm.R14)
	b.FADDD(asm.F0, asm.F0, asm.F1)
	b.FMULD(asm.F0, asm.F0, asm.F10)
	b.SD(asm.F0, 0, asm.R15)
	b.ADDI(asm.R14, asm.R14, 8)
	b.ADDI(asm.R15, asm.R15, 8)
	b.ADDI(asm.R17, asm.R17, 1)
	b.BLT(asm.R17, asm.R13, tag+"_rj") // j < c1
	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R11, tag+"_ri") // i < r1
}

// Emit writes Ocean's guest program for w.NumCPUs processors, text and
// data, into a new builder. Four CPUs use the paper's 2x2 square
// subgrid decomposition; other processor counts fall back to row strips
// (the other common Ocean decomposition).
func (w *Ocean) Emit() (*asm.Builder, error) {
	n, cN := w.N, w.coarseN()
	quad := w.NumCPUs == 4
	if quad && ((n-2)%2 != 0 || (cN-2)%2 != 0) {
		return nil, fmt.Errorf("ocean: interior sizes must be even for a 2x2 decomposition (N=%d)", n)
	}
	if !quad && ((n-2)%w.NumCPUs != 0 || (cN-2)%w.NumCPUs != 0) {
		return nil, fmt.Errorf("ocean: interiors (%d, %d) must divide into %d row strips", n-2, cN-2, w.NumCPUs)
	}
	fineHalf := (n - 2) / 2
	coarseHalf := (cN - 2) / 2

	b := asm.NewBuilder()
	// R20 tid, R21 iter, R26 row-half selector (tid/2), R27 col-half
	// (tid%2). Bounds per sweep go in R16(i)/R11(r1)/R12(c0)/R13(c1).
	b.Label("start")
	b.MOVE(asm.R20, asm.A0)
	b.SRLI(asm.R26, asm.R20, 1)
	b.ANDI(asm.R27, asm.R20, 1)
	b.LA(asm.R8, "consts")
	b.LD(asm.F10, 0, asm.R8) // 0.2
	b.LD(asm.F11, 8, asm.R8) // 0.5

	// --- fine sweeps ---
	b.LI(asm.R21, 0)
	b.Label("oc_fine")
	// src/dst by parity.
	b.LA(asm.R18, "gridA")
	b.LA(asm.R19, "gridB")
	b.ANDI(asm.R8, asm.R21, 1)
	b.BEQZ(asm.R8, "oc_fs")
	b.MOVE(asm.R9, asm.R18)
	b.MOVE(asm.R18, asm.R19)
	b.MOVE(asm.R19, asm.R9)
	b.Label("oc_fs")
	if quad {
		// Quadrant bounds: r0 = 1 + (tid/2)*half, c0 = 1 + (tid%2)*half.
		b.LI(asm.R8, int32(fineHalf))
		b.MUL(asm.R16, asm.R26, asm.R8)
		b.ADDI(asm.R16, asm.R16, 1) // i = r0
		b.ADDI(asm.R11, asm.R16, int32(fineHalf))
		b.MUL(asm.R12, asm.R27, asm.R8)
		b.ADDI(asm.R12, asm.R12, 1)
		b.ADDI(asm.R13, asm.R12, int32(fineHalf))
	} else {
		// Row strips: rows [1 + tid*strip, +strip), all interior columns.
		strip := (n - 2) / w.NumCPUs
		b.LI(asm.R8, int32(strip))
		b.MUL(asm.R16, asm.R20, asm.R8)
		b.ADDI(asm.R16, asm.R16, 1)
		b.ADDI(asm.R11, asm.R16, int32(strip))
		b.LI(asm.R12, 1)
		b.LI(asm.R13, int32(n-1))
	}
	w.emitSweep(b, "oc_f", n)
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)
	b.ADDI(asm.R21, asm.R21, 1)
	b.LI(asm.R8, int32(w.FineIter))
	b.BLT(asm.R21, asm.R8, "oc_fine")

	// Fine result array (parity of FineIter): even -> gridA.
	b.LA(asm.R18, "gridA")
	if w.FineIter%2 == 1 {
		b.LA(asm.R18, "gridB")
	}

	// --- restriction: C[i][j] = fine[min(2i,n-1)][min(2j,n-1)] ---
	// Rows split evenly: [tid*q, min((tid+1)*q, cN)).
	q := (cN + w.NumCPUs - 1) / w.NumCPUs
	b.LA(asm.R19, "gridC")
	b.LI(asm.R8, int32(q))
	b.MUL(asm.R16, asm.R20, asm.R8)
	b.ADDI(asm.R11, asm.R16, int32(q))
	b.LI(asm.R8, int32(cN))
	b.BLT(asm.R11, asm.R8, "oc_rs")
	b.MOVE(asm.R11, asm.R8)
	b.Label("oc_rs")
	b.BGE(asm.R16, asm.R11, "oc_rdone")
	b.Label("oc_r_i")
	// fi = min(2i, n-1)
	b.SLLI(asm.R9, asm.R16, 1)
	b.LI(asm.R8, int32(n-1))
	b.BLT(asm.R9, asm.R8, "oc_rfi")
	b.MOVE(asm.R9, asm.R8)
	b.Label("oc_rfi")
	b.LI(asm.R8, int32(8*n))
	b.MUL(asm.R14, asm.R9, asm.R8)
	b.ADD(asm.R14, asm.R18, asm.R14) // fine row base
	b.LI(asm.R8, int32(8*cN))
	b.MUL(asm.R15, asm.R16, asm.R8)
	b.ADD(asm.R15, asm.R19, asm.R15) // coarse row base
	b.LI(asm.R17, 0)
	b.Label("oc_r_j")
	b.SLLI(asm.R9, asm.R17, 1)
	b.LI(asm.R8, int32(n-1))
	b.BLT(asm.R9, asm.R8, "oc_rfj")
	b.MOVE(asm.R9, asm.R8)
	b.Label("oc_rfj")
	b.SLLI(asm.R9, asm.R9, 3)
	b.ADD(asm.R9, asm.R14, asm.R9)
	b.LD(asm.F0, 0, asm.R9)
	b.SLLI(asm.R9, asm.R17, 3)
	b.ADD(asm.R9, asm.R15, asm.R9)
	b.SD(asm.F0, 0, asm.R9)
	// D gets the same value (boundary carry-over for coarse sweeps).
	b.LA(asm.R10, "gridD")
	b.SUB(asm.R9, asm.R9, asm.R19)
	b.ADD(asm.R9, asm.R10, asm.R9)
	b.SD(asm.F0, 0, asm.R9)
	b.ADDI(asm.R17, asm.R17, 1)
	b.LI(asm.R8, int32(cN))
	b.BLT(asm.R17, asm.R8, "oc_r_j")
	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R11, "oc_r_i")
	b.Label("oc_rdone")
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)

	// --- coarse sweeps ---
	b.LI(asm.R21, 0)
	b.Label("oc_coarse")
	b.LA(asm.R18, "gridC")
	b.LA(asm.R19, "gridD")
	b.ANDI(asm.R8, asm.R21, 1)
	b.BEQZ(asm.R8, "oc_cs")
	b.MOVE(asm.R9, asm.R18)
	b.MOVE(asm.R18, asm.R19)
	b.MOVE(asm.R19, asm.R9)
	b.Label("oc_cs")
	if quad {
		b.LI(asm.R8, int32(coarseHalf))
		b.MUL(asm.R16, asm.R26, asm.R8)
		b.ADDI(asm.R16, asm.R16, 1)
		b.ADDI(asm.R11, asm.R16, int32(coarseHalf))
		b.MUL(asm.R12, asm.R27, asm.R8)
		b.ADDI(asm.R12, asm.R12, 1)
		b.ADDI(asm.R13, asm.R12, int32(coarseHalf))
	} else {
		strip := (cN - 2) / w.NumCPUs
		b.LI(asm.R8, int32(strip))
		b.MUL(asm.R16, asm.R20, asm.R8)
		b.ADDI(asm.R16, asm.R16, 1)
		b.ADDI(asm.R11, asm.R16, int32(strip))
		b.LI(asm.R12, 1)
		b.LI(asm.R13, int32(cN-1))
	}
	w.emitSweep(b, "oc_c", cN)
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)
	b.ADDI(asm.R21, asm.R21, 1)
	b.LI(asm.R8, int32(w.CoarseIt))
	b.BLT(asm.R21, asm.R8, "oc_coarse")

	// --- blend the coarse correction back into the fine grid ---
	b.LA(asm.R18, "gridA")
	if w.FineIter%2 == 1 {
		b.LA(asm.R18, "gridB")
	}
	b.LA(asm.R19, "gridC")
	if w.CoarseIt%2 == 1 {
		b.LA(asm.R19, "gridD")
	}
	// Interior coarse rows split as quadrant halves over rows only:
	// rows [1 + tid*(cN-2)/4, ...+(cN-2)/4).
	rows := (cN - 2) / w.NumCPUs
	b.LI(asm.R8, int32(rows))
	b.MUL(asm.R16, asm.R20, asm.R8)
	b.ADDI(asm.R16, asm.R16, 1)
	b.ADDI(asm.R11, asm.R16, int32(rows))
	b.Label("oc_b_i")
	b.LI(asm.R8, int32(8*cN))
	b.MUL(asm.R15, asm.R16, asm.R8)
	b.ADD(asm.R15, asm.R19, asm.R15)
	b.SLLI(asm.R9, asm.R16, 1) // fi = 2i
	b.LI(asm.R8, int32(8*n))
	b.MUL(asm.R14, asm.R9, asm.R8)
	b.ADD(asm.R14, asm.R18, asm.R14)
	b.LI(asm.R17, 1)
	b.Label("oc_b_j")
	b.SLLI(asm.R9, asm.R17, 4) // fj*8 = 2j*8
	b.ADD(asm.R9, asm.R14, asm.R9)
	b.LD(asm.F0, 0, asm.R9)
	b.SLLI(asm.R10, asm.R17, 3)
	b.ADD(asm.R10, asm.R15, asm.R10)
	b.LD(asm.F1, 0, asm.R10)
	b.FADDD(asm.F0, asm.F0, asm.F1)
	b.FMULD(asm.F0, asm.F0, asm.F11)
	b.SD(asm.F0, 0, asm.R9)
	b.ADDI(asm.R17, asm.R17, 1)
	b.LI(asm.R8, int32(cN-1))
	b.BLT(asm.R17, asm.R8, "oc_b_j")
	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R11, "oc_b_i")
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)
	b.HALT()

	guestlib.EmitRuntime(b)

	b.AlignData(8)
	b.DataLabel("consts")
	b.Float64(0.2, 0.5)
	b.DataLabel("gridA")
	b.Zero(uint32(8 * n * n))
	b.DataLabel("gridB")
	b.Zero(uint32(8 * n * n))
	b.DataLabel("gridC")
	b.Zero(uint32(8 * cN * cN))
	b.DataLabel("gridD")
	b.Zero(uint32(8 * cN * cN))
	guestlib.EmitBarrierData(b, "bar", w.NumCPUs)
	return b, nil
}

// Configure implements Workload: it assembles Emit's program for the
// machine's processor count, loads it and fills grid A.
func (w *Ocean) Configure(m *core.Machine) error {
	w.NumCPUs = m.Cfg.NumCPUs
	b, err := w.Emit()
	if err != nil {
		return err
	}
	p, err := b.Assemble(TextBase, DataBase)
	if err != nil {
		return err
	}
	n := w.N
	if err := checkLayout("ocean", m, spmdRegions(p, w.NumCPUs)...); err != nil {
		return err
	}
	w.prog = p
	setupSPMD(m, p, w.NumCPUs)

	// Host-side initialization of grid A (and B's boundary).
	rng := rand.New(rand.NewSource(w.seed))
	a0 := make([]float64, n*n)
	for i := range a0 {
		a0[i] = rng.Float64()
	}
	aBase, bBase := p.Addr("gridA"), p.Addr("gridB")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Img.WriteF64(aBase+uint32(8*(i*n+j)), a0[i*n+j])
		}
	}
	for i := 0; i < n; i++ {
		for _, idx := range []int{i, (n-1)*n + i, i * n, i*n + n - 1} {
			m.Img.WriteF64(bBase+uint32(8*idx), a0[idx])
		}
	}
	w.refA, w.refC = w.reference(a0)
	return nil
}

// Validate implements Workload.
func (w *Ocean) Validate(m *core.Machine) error {
	n, cN := w.N, w.coarseN()
	fineLabel := "gridA"
	if w.FineIter%2 == 1 {
		fineLabel = "gridB"
	}
	base := w.prog.Addr(fineLabel)
	for i := 0; i < n*n; i++ {
		if got := m.Img.ReadF64(base + uint32(8*i)); got != w.refA[i] {
			return fmt.Errorf("ocean: fine[%d][%d] = %v, want %v", i/n, i%n, got, w.refA[i])
		}
	}
	coarseLabel := "gridC"
	if w.CoarseIt%2 == 1 {
		coarseLabel = "gridD"
	}
	base = w.prog.Addr(coarseLabel)
	for i := 0; i < cN*cN; i++ {
		if got := m.Img.ReadF64(base + uint32(8*i)); got != w.refC[i] {
			return fmt.Errorf("ocean: coarse[%d][%d] = %v, want %v", i/cN, i%cN, got, w.refC[i])
		}
	}
	return nil
}
