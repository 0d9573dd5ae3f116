package workload

import (
	"fmt"
	"math"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/guestlib"
)

// FFT reproduces the nasa7 FFT kernel parallelized by the SUIF compiler
// (Section 3.2.2): a batch of independent 1-D FFTs whose outer loop the
// compiler parallelizes across procedure boundaries, giving fairly
// large-grained parallelism. Each CPU transforms its own vectors in
// place; the twiddle and bit-reversal tables are shared read-only. There
// is essentially no read-write sharing, so the three architectures
// perform similarly (Figure 9), with small L2-level differences.
type FFT struct {
	N       int // points per FFT (power of two)
	Batches int // number of vectors (divisible by NumCPUs)
	NumCPUs int

	prog *asm.Program
	ref  [][]float64 // expected output, re/im interleaved per vector
}

// FFTParams configures FFT; zero fields take defaults.
type FFTParams struct {
	N, Batches int
}

// NewFFT builds the workload; zero params mean the default scale.
func NewFFT(p FFTParams) *FFT {
	w := &FFT{N: 256, Batches: 48, NumCPUs: 4}
	if p.N > 0 {
		w.N = p.N
	}
	if p.Batches > 0 {
		w.Batches = p.Batches
	}
	return w
}

func init() { register("fft", func() Workload { return NewFFT(FFTParams{}) }) }

const fftDataBase = 0x0040_0000 // vectors live outside the program image

// Name implements Workload.
func (w *FFT) Name() string { return "fft" }

// Description implements Workload.
func (w *FFT) Description() string {
	return "nasa7 FFT kernel (SUIF): coarse-grained batches, read-only shared tables"
}

// MemBytes implements Workload.
func (w *FFT) MemBytes() uint32 { return MemBytes }

// Threads implements Workload.
func (w *FFT) Threads() int { return w.NumCPUs }

// twiddles returns the N/2 complex roots of unity used by both guest
// and mirror (identical values: the guest loads this exact table).
func (w *FFT) twiddles() []float64 {
	t := make([]float64, w.N) // N/2 complex pairs
	for j := 0; j < w.N/2; j++ {
		ang := -2 * math.Pi * float64(j) / float64(w.N)
		t[2*j] = math.Cos(ang)
		t[2*j+1] = math.Sin(ang)
	}
	return t
}

func (w *FFT) revTable() []uint32 {
	bits := 0
	for 1<<bits < w.N {
		bits++
	}
	t := make([]uint32, w.N)
	for i := range t {
		r := uint32(0)
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		t[i] = r
	}
	return t
}

// inputs generates the deterministic input vectors.
func (w *FFT) inputs() [][]float64 {
	vs := make([][]float64, w.Batches)
	for v := range vs {
		a := make([]float64, 2*w.N)
		for i := 0; i < w.N; i++ {
			// A mix of tones; cheap, deterministic, and exactly
			// representable operations are not required here since both
			// guest and mirror read the same initialized memory.
			a[2*i] = math.Sin(2*math.Pi*float64((v+1)*i)/float64(w.N)) + float64(0.25*float64(i%5))
			a[2*i+1] = 0.5 * math.Cos(2*math.Pi*float64(i*3)/float64(w.N))
		}
		vs[v] = a
	}
	return vs
}

// fftMirror transforms a (re/im interleaved) in place with the guest's
// exact operation order.
func (w *FFT) fftMirror(a []float64, tw []float64, rev []uint32) {
	n := w.N
	for i := 0; i < n; i++ {
		j := int(rev[i])
		if i < j {
			a[2*i], a[2*j] = a[2*j], a[2*i]
			a[2*i+1], a[2*j+1] = a[2*j+1], a[2*i+1]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		step := n / length
		for i := 0; i < n; i += length {
			for k := 0; k < half; k++ {
				wr := tw[2*k*step]
				wi := tw[2*k*step+1]
				ur, ui := a[2*(i+k)], a[2*(i+k)+1]
				tr, ti := a[2*(i+k+half)], a[2*(i+k+half)+1]
				// Rounded products, as the guest computes them (no fused multiply-add).
				vr := float64(tr*wr) - float64(ti*wi)
				vi := float64(tr*wi) + float64(ti*wr)
				a[2*(i+k)] = ur + vr
				a[2*(i+k)+1] = ui + vi
				a[2*(i+k+half)] = ur - vr
				a[2*(i+k+half)+1] = ui - vi
			}
		}
	}
}

// Configure implements Workload.
func (w *FFT) Configure(m *core.Machine) error {
	w.NumCPUs = m.Cfg.NumCPUs
	if w.N&(w.N-1) != 0 {
		return fmt.Errorf("fft: N=%d must be a power of two", w.N)
	}
	if w.Batches%w.NumCPUs != 0 {
		return fmt.Errorf("fft: batches (%d) must divide by %d CPUs", w.Batches, w.NumCPUs)
	}
	n := w.N
	vecBytes := uint32(16 * n)
	per := w.Batches / w.NumCPUs

	b := asm.NewBuilder()
	// R20 tid, R21 vector index, R22 limit, R18 vector base.
	b.Label("start")
	b.MOVE(asm.R20, asm.A0)
	b.LI(asm.R8, int32(per))
	b.MUL(asm.R21, asm.R20, asm.R8)
	b.ADDI(asm.R22, asm.R21, int32(per))

	b.Label("fft_v")
	b.LIU(asm.R9, fftDataBase)
	b.LIU(asm.R8, vecBytes)
	b.MUL(asm.R10, asm.R21, asm.R8)
	b.ADD(asm.R18, asm.R9, asm.R10) // vector base

	// --- bit-reversal permutation ---
	b.LI(asm.R16, 0) // i
	b.LA(asm.R19, "revtab")
	b.Label("fft_br")
	b.SLLI(asm.R9, asm.R16, 2)
	b.ADD(asm.R9, asm.R19, asm.R9)
	b.LW(asm.R8, 0, asm.R9) // j
	b.BGE(asm.R16, asm.R8, "fft_brs")
	// swap complex i <-> j
	b.SLLI(asm.R9, asm.R16, 4)
	b.ADD(asm.R9, asm.R18, asm.R9)
	b.SLLI(asm.R10, asm.R8, 4)
	b.ADD(asm.R10, asm.R18, asm.R10)
	b.LD(asm.F0, 0, asm.R9)
	b.LD(asm.F1, 8, asm.R9)
	b.LD(asm.F2, 0, asm.R10)
	b.LD(asm.F3, 8, asm.R10)
	b.SD(asm.F2, 0, asm.R9)
	b.SD(asm.F3, 8, asm.R9)
	b.SD(asm.F0, 0, asm.R10)
	b.SD(asm.F1, 8, asm.R10)
	b.Label("fft_brs")
	b.ADDI(asm.R16, asm.R16, 1)
	b.LI(asm.R8, int32(n))
	b.BLT(asm.R16, asm.R8, "fft_br")

	// --- butterfly stages ---
	// R16 = len, R14 = half, R13 = step, R17 = i, R15 = k.
	b.LI(asm.R16, 2)
	b.Label("fft_stage")
	b.SRLI(asm.R14, asm.R16, 1) // half
	b.LI(asm.R8, int32(n))
	b.DIV(asm.R13, asm.R8, asm.R16) // step
	b.LI(asm.R17, 0)                // i
	b.Label("fft_i")
	b.LI(asm.R15, 0) // k
	b.Label("fft_k")
	// w = tw[k*step]
	b.MUL(asm.R9, asm.R15, asm.R13)
	b.SLLI(asm.R9, asm.R9, 4)
	b.LA(asm.R10, "twiddle")
	b.ADD(asm.R9, asm.R10, asm.R9)
	b.LD(asm.F0, 0, asm.R9) // wr
	b.LD(asm.F1, 8, asm.R9) // wi
	// u = a[i+k], t = a[i+k+half]
	b.ADD(asm.R9, asm.R17, asm.R15)
	b.SLLI(asm.R9, asm.R9, 4)
	b.ADD(asm.R9, asm.R18, asm.R9) // &a[i+k]
	b.SLLI(asm.R10, asm.R14, 4)
	b.ADD(asm.R10, asm.R9, asm.R10) // &a[i+k+half]
	b.LD(asm.F2, 0, asm.R9)         // ur
	b.LD(asm.F3, 8, asm.R9)         // ui
	b.LD(asm.F4, 0, asm.R10)        // tr
	b.LD(asm.F5, 8, asm.R10)        // ti
	// v = t * w (complex)
	b.FMULD(asm.F6, asm.F4, asm.F0)
	b.FMULD(asm.F8, asm.F5, asm.F1)
	b.FSUBD(asm.F6, asm.F6, asm.F8) // vr = tr*wr - ti*wi
	b.FMULD(asm.F7, asm.F4, asm.F1)
	b.FMULD(asm.F8, asm.F5, asm.F0)
	b.FADDD(asm.F7, asm.F7, asm.F8) // vi = tr*wi + ti*wr
	// a[i+k] = u + v ; a[i+k+half] = u - v
	b.FADDD(asm.F8, asm.F2, asm.F6)
	b.SD(asm.F8, 0, asm.R9)
	b.FADDD(asm.F8, asm.F3, asm.F7)
	b.SD(asm.F8, 8, asm.R9)
	b.FSUBD(asm.F8, asm.F2, asm.F6)
	b.SD(asm.F8, 0, asm.R10)
	b.FSUBD(asm.F8, asm.F3, asm.F7)
	b.SD(asm.F8, 8, asm.R10)
	b.ADDI(asm.R15, asm.R15, 1)
	b.BLT(asm.R15, asm.R14, "fft_k")
	b.ADD(asm.R17, asm.R17, asm.R16)
	b.LI(asm.R8, int32(n))
	b.BLT(asm.R17, asm.R8, "fft_i")
	b.SLLI(asm.R16, asm.R16, 1)
	b.BLE(asm.R16, asm.R8, "fft_stage")

	b.ADDI(asm.R21, asm.R21, 1)
	b.BLT(asm.R21, asm.R22, "fft_v")
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)
	b.HALT()

	guestlib.EmitRuntime(b)

	b.AlignData(8)
	b.DataLabel("twiddle")
	b.Float64(w.twiddles()...)
	b.AlignData(4)
	b.DataLabel("revtab")
	b.Word32(w.revTable()...)
	guestlib.EmitBarrierData(b, "bar", w.NumCPUs)

	p, err := b.Assemble(TextBase, DataBase)
	if err != nil {
		return err
	}
	vectors := region{"vectors", fftDataBase, fftDataBase + int64(w.Batches)*int64(vecBytes)}
	if err := checkLayout("fft", m, append(spmdRegions(p, w.NumCPUs), vectors)...); err != nil {
		return err
	}
	w.prog = p
	setupSPMD(m, p, w.NumCPUs)

	// The vectors are private to their owners; the tables in the data
	// section are shared (read-only).
	dataEnd := p.DataEnd()
	m.SetSharedData(func(a uint32) bool { return a >= DataBase && a < dataEnd })

	ins := w.inputs()
	tw := w.twiddles()
	rev := w.revTable()
	w.ref = make([][]float64, w.Batches)
	for v, a := range ins {
		base := fftDataBase + uint32(v)*vecBytes
		for i, f := range a {
			m.Img.WriteF64(base+uint32(8*i), f)
		}
		out := append([]float64(nil), a...)
		w.fftMirror(out, tw, rev)
		w.ref[v] = out
	}
	return nil
}

// Validate implements Workload.
func (w *FFT) Validate(m *core.Machine) error {
	vecBytes := uint32(16 * w.N)
	for v, want := range w.ref {
		base := fftDataBase + uint32(v)*vecBytes
		for i, f := range want {
			if got := m.Img.ReadF64(base + uint32(8*i)); got != f {
				return fmt.Errorf("fft: vector %d word %d = %v, want %v", v, i, got, f)
			}
		}
	}
	return nil
}
