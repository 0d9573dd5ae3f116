package workload

import (
	"fmt"
	"math/rand"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/guestlib"
)

// MP3D reproduces the SPLASH particle simulator (Section 3.2.1): a
// rarefied-flow Monte-Carlo code written for vector machines, with
// large communication volume and unstructured read-write sharing
// through the space-cell array. Particles are statically partitioned
// into contiguous blocks, one per CPU, and the blocks are spaced so that
// the four streams alias in the 64KB 2-way shared L1 (set stride 32KB) —
// the mechanism behind the paper's observation that the shared-L1 L1R
// miss rate is over twice that of the private caches. A per-particle
// properties table lives exactly 2MB above the particle array, so in the
// default direct-mapped L2 the two streams conflict line-for-line; with
// a 4-way L2 (the Section 4.1 ablation) both become resident.
type MP3D struct {
	Particles int // must divide by 4; default 16384 (paper: 35000)
	Steps     int
	Grid      int // cells per axis (G^3 cells)
	NumCPUs   int

	prog *asm.Program
	ref  *mp3dState
	seed int64

	// clampSeq generates unique local label names across the emit
	// helpers. Per-instance (not package-level) so repeated builds in
	// one process emit identical label names — a package-level counter
	// made profile symbol tables differ between otherwise identical
	// runs.
	clampSeq int
}

// MP3DParams configures MP3D; zero fields take defaults.
type MP3DParams struct {
	Particles, Steps, Grid int
}

// NewMP3D builds the workload; zero params mean the default scale.
func NewMP3D(p MP3DParams) *MP3D {
	w := &MP3D{Particles: 16384, Steps: 3, Grid: 16, NumCPUs: 4, seed: 1996}
	if p.Particles > 0 {
		w.Particles = p.Particles
	}
	if p.Steps > 0 {
		w.Steps = p.Steps
	}
	if p.Grid > 0 {
		w.Grid = p.Grid
	}
	return w
}

func init() { register("mp3d", func() Workload { return NewMP3D(MP3DParams{}) }) }

// Fixed physical layout (identity address space).
const (
	mp3dParticleBase = 0x0040_0000 // 4 MiB
	// The aux (species properties) table sits 768 KiB above the
	// particles plus 4 KiB: 256 KiB away modulo every L2 size in the study, so the
	// two streams never conflict in any L2.
	mp3dAuxOffset = 0x000c_1000
	mp3dRecBytes  = 48 // x,y,z,vx,vy,vz float64

	// Per-CPU collision buffers: hot, heavily reused, 8 KiB each.
	//
	// The 32 KiB spacing makes all four buffers cover the same sets of
	// the 64 KiB 2-way shared L1 (set stride 32 KiB), so they conflict
	// there while each fits comfortably in one way of a private 16 KiB
	// L1 — the paper's "references from different processors are
	// conflicting in the L1 cache", which makes the shared-L1 L1R miss
	// rate over twice that of the other architectures.
	//
	// The buffers are also spaced an exact 2 MiB apart, so all four
	// cover the *same* lines of the default direct-mapped 2 MiB L2.
	// Only the shared-L1 architecture's L2 sees buffer lines constantly
	// (its thrashing L1 keeps refetching them), so only there do the
	// four buffers ping-pong in the direct-mapped L2 and fall through to
	// memory — the paper's "high L1R miss rate causes a substantial
	// increase in the L2R miss rate". The private L1s of the other two
	// architectures keep the buffers resident, so their L2s barely see
	// them. A 4-way L2 (the Section 4.1 ablation) holds all four buffers
	// and the conflict vanishes, exactly as the paper reports.
	mp3dBufBase    = 0x008c_8000 // 8 MiB + 800 KiB: clear of the particle image mod 2 MiB
	mp3dBufSpacing = 2 << 20
	mp3dBufEntries = 512
	mp3dBufStride  = 16 // bytes per entry

	mp3dEps = 0.0001
	mp3dDt  = 0.1
)

// mp3dScanMults are the strided collision-candidate probes per particle;
// the strides exceed a cache line so each probe touches a distinct
// buffer line (no spatial locality to hide the shared-L1 thrash).
var mp3dScanMults = []int{3, 5, 7, 11, 13, 17}

// Name implements Workload.
func (w *MP3D) Name() string { return "mp3d" }

// Description implements Workload.
func (w *MP3D) Description() string {
	return "SPLASH MP3D particle simulator: streaming working sets, heavy cell sharing"
}

// MemBytes implements Workload.
func (w *MP3D) MemBytes() uint32 { return MemBytes }

// Threads implements Workload.
func (w *MP3D) Threads() int { return w.NumCPUs }

func (w *MP3D) blockStride() uint32 {
	return uint32(w.Particles / w.NumCPUs * mp3dRecBytes)
}

func (w *MP3D) cells() int { return w.Grid * w.Grid * w.Grid }

// avgCount is the K constant the velocity nudge centres on.
func (w *MP3D) avgCount() int32 { return int32(w.Particles / w.cells()) }

// mp3dState is the Go mirror of the guest computation.
type mp3dState struct {
	x, y, z, vx, vy, vz []float64
	aux                 []float64
	cells               [2][]int32
	bufs                [][]int32 // per-CPU collision buffers
	chk                 []uint32  // per-CPU buffer checksums
}

func (w *MP3D) initialState() *mp3dState {
	rng := rand.New(rand.NewSource(w.seed))
	n := w.Particles
	st := &mp3dState{
		x: make([]float64, n), y: make([]float64, n), z: make([]float64, n),
		vx: make([]float64, n), vy: make([]float64, n), vz: make([]float64, n),
		aux: make([]float64, n),
	}
	st.cells[0] = make([]int32, w.cells())
	st.cells[1] = make([]int32, w.cells())
	st.bufs = make([][]int32, w.NumCPUs)
	for i := range st.bufs {
		st.bufs[i] = make([]int32, mp3dBufEntries)
	}
	st.chk = make([]uint32, w.NumCPUs)
	g := float64(w.Grid)
	for i := 0; i < n; i++ {
		st.x[i] = rng.Float64() * g
		st.y[i] = rng.Float64() * g
		st.z[i] = rng.Float64() * g
		// float64(x*y) rounds the product before the add (here, inside
		// Float64), as the guest does: no fused multiply-add on any host.
		st.vx[i] = float64(rng.Float64()) - 0.5
		st.vy[i] = float64(rng.Float64()) - 0.5
		st.vz[i] = float64(rng.Float64()) - 0.5
		st.aux[i] = 1.0 + float64(float64(i%5)*0.25)
	}
	// Step 0 reads cells[0]; seed it with a deterministic census of the
	// initial positions so the first velocity nudge is meaningful.
	for i := 0; i < n; i++ {
		st.cells[0][w.cellOf(st.x[i], st.y[i], st.z[i])]++
	}
	return st
}

func (w *MP3D) cellOf(x, y, z float64) int {
	g := w.Grid
	clamp := func(v float64) int {
		i := int(int32(v)) // trunc, mirroring CVTFI on in-range values
		if i < 0 {
			i = 0
		}
		if i >= g {
			i = g - 1
		}
		return i
	}
	return (clamp(x)*g+clamp(y))*g + clamp(z)
}

// advance mirrors the guest step exactly (same FP operation order).
func (w *MP3D) advance(st *mp3dState) {
	g := float64(w.Grid)
	k := w.avgCount()
	perCPU := w.Particles / w.NumCPUs
	for step := 0; step < w.Steps; step++ {
		prev := st.cells[step%2]
		next := st.cells[(step+1)%2]
		for i := range next {
			next[i] = 0
		}
		for i := 0; i < w.Particles; i++ {
			c := prev[w.cellOf(st.x[i], st.y[i], st.z[i])]
			nudge := float64(float64(c-k) * mp3dEps * st.aux[i])
			st.vx[i] += nudge
			st.x[i] += float64(st.vx[i] * mp3dDt)
			st.y[i] += float64(st.vy[i] * mp3dDt)
			st.z[i] += float64(st.vz[i] * mp3dDt)
			if st.x[i] < 0 {
				st.x[i] += g
			}
			if st.x[i] >= g {
				st.x[i] -= g
			}
			if st.y[i] < 0 {
				st.y[i] += g
			}
			if st.y[i] >= g {
				st.y[i] -= g
			}
			if st.z[i] < 0 {
				st.z[i] += g
			}
			if st.z[i] >= g {
				st.z[i] -= g
			}
			next[w.cellOf(st.x[i], st.y[i], st.z[i])]++
			// Collision-pair counter at a rotated cell index: a second
			// read-write shared reference per particle (MP3D's
			// communication volume is large and unstructured).
			next[w.cellOf(st.z[i], st.x[i], st.y[i])]++

			// Collision-buffer traffic: record this particle, then scan a
			// window of candidate partners, mirroring the guest exactly.
			cpu := i / perCPU
			li := i % perCPU
			buf := st.bufs[cpu]
			t := int32(st.x[i]) // in [0, G), so plain truncation matches CVTFI
			buf[li&(mp3dBufEntries-1)] = t
			for _, mult := range mp3dScanMults {
				st.chk[cpu] += uint32(buf[(li*mult)&(mp3dBufEntries-1)])
			}
		}
	}
}

// Configure implements Workload.
func (w *MP3D) Configure(m *core.Machine) error {
	w.NumCPUs = m.Cfg.NumCPUs
	if w.NumCPUs > 8 {
		return fmt.Errorf("mp3d: at most 8 CPUs (collision-buffer layout)")
	}
	if w.Particles%w.NumCPUs != 0 {
		return fmt.Errorf("mp3d: particles (%d) must divide by %d CPUs", w.Particles, w.NumCPUs)
	}
	b := asm.NewBuilder()
	perCPU := w.Particles / w.NumCPUs
	cellsPer := w.cells() / w.NumCPUs

	// Register plan: R20 tid, R21 step, R22 step limit, R23 prev cells,
	// R24 next cells, R25 G, R18 particle block base, R19 aux block base,
	// R16 particle counter, others scratch.
	b.Label("start")
	b.MOVE(asm.R20, asm.A0)
	b.LI(asm.R22, int32(w.Steps))
	b.LI(asm.R21, 0)
	b.LI(asm.R25, int32(w.Grid))
	// FP constants: F10 dt, F11 eps, F12 G, F13 zero.
	b.LA(asm.R8, "consts")
	b.LD(asm.F10, 0, asm.R8)
	b.LD(asm.F11, 8, asm.R8)
	b.LD(asm.F12, 16, asm.R8)
	b.CVTIF(asm.F13, asm.R0)
	// Block bases.
	b.LIU(asm.R18, mp3dParticleBase)
	b.LIU(asm.R8, w.blockStride())
	b.MUL(asm.R9, asm.R20, asm.R8)
	b.ADD(asm.R18, asm.R18, asm.R9)
	b.LIU(asm.R19, mp3dParticleBase+mp3dAuxOffset)
	b.ADD(asm.R19, asm.R19, asm.R9)
	// Collision buffer base for this CPU and its running checksum.
	b.LIU(asm.R27, mp3dBufBase)
	b.LIU(asm.R8, mp3dBufSpacing)
	b.MUL(asm.R9, asm.R20, asm.R8)
	b.ADD(asm.R27, asm.R27, asm.R9)
	b.LI(asm.R26, 0)

	b.Label("mp_step")
	// Buffer select on step parity: even reads cells0/writes cells1.
	b.LA(asm.R23, "cells0")
	b.LA(asm.R24, "cells1")
	b.ANDI(asm.R8, asm.R21, 1)
	b.BEQZ(asm.R8, "mp_noswap")
	b.MOVE(asm.R9, asm.R23)
	b.MOVE(asm.R23, asm.R24)
	b.MOVE(asm.R24, asm.R9)
	b.Label("mp_noswap")

	// Zero my slice of the next-census array.
	b.LI(asm.R8, int32(cellsPer))
	b.MUL(asm.R9, asm.R20, asm.R8)
	b.SLLI(asm.R9, asm.R9, 2)
	b.ADD(asm.R9, asm.R24, asm.R9)
	b.LI(asm.R10, int32(cellsPer))
	b.Label("mp_zero")
	b.SW(asm.R0, 0, asm.R9)
	b.ADDI(asm.R9, asm.R9, 4)
	b.ADDI(asm.R10, asm.R10, -1)
	b.BNEZ(asm.R10, "mp_zero")
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)

	// Particle loop.
	b.LI(asm.R16, 0)
	b.LI(asm.R17, int32(perCPU))
	b.Label("mp_part")
	b.LI(asm.R8, mp3dRecBytes)
	b.MUL(asm.R9, asm.R16, asm.R8)
	b.ADD(asm.R10, asm.R18, asm.R9) // &particle
	b.ADD(asm.R11, asm.R19, asm.R9) // &aux (2MB above: L2 conflict in DM)
	b.LD(asm.F0, 0, asm.R10)        // x
	b.LD(asm.F1, 8, asm.R10)        // y
	b.LD(asm.F2, 16, asm.R10)       // z
	b.LD(asm.F3, 24, asm.R10)       // vx
	b.LD(asm.F4, 32, asm.R10)       // vy
	b.LD(asm.F5, 40, asm.R10)       // vz
	b.LD(asm.F6, 0, asm.R11)        // a

	// Census cell of the current position -> c (read-shared across CPUs).
	w.emitCellIndex(b, asm.F0, asm.F1, asm.F2, asm.R12)
	b.SLLI(asm.R12, asm.R12, 2)
	b.ADD(asm.R12, asm.R23, asm.R12)
	b.LW(asm.R13, 0, asm.R12)
	b.ADDI(asm.R13, asm.R13, -w.avgCount())
	b.CVTIF(asm.F7, asm.R13)
	b.FMULD(asm.F7, asm.F7, asm.F11) // (c-K)*eps
	b.FMULD(asm.F7, asm.F7, asm.F6)  // *a
	b.FADDD(asm.F3, asm.F3, asm.F7)  // vx +=

	// Advance.
	b.FMULD(asm.F8, asm.F3, asm.F10)
	b.FADDD(asm.F0, asm.F0, asm.F8)
	b.FMULD(asm.F8, asm.F4, asm.F10)
	b.FADDD(asm.F1, asm.F1, asm.F8)
	b.FMULD(asm.F8, asm.F5, asm.F10)
	b.FADDD(asm.F2, asm.F2, asm.F8)
	// Periodic wrap per axis.
	w.emitWrap(b, asm.F0, "x")
	w.emitWrap(b, asm.F1, "y")
	w.emitWrap(b, asm.F2, "z")

	// Store the mutated fields.
	b.SD(asm.F0, 0, asm.R10)
	b.SD(asm.F1, 8, asm.R10)
	b.SD(asm.F2, 16, asm.R10)
	b.SD(asm.F3, 24, asm.R10)

	// Atomic census increment in the next buffer (read-write sharing).
	w.emitCellIndex(b, asm.F0, asm.F1, asm.F2, asm.R12)
	b.SLLI(asm.R12, asm.R12, 2)
	b.ADD(asm.R12, asm.R24, asm.R12)
	b.Label("mp_inc")
	b.LL(asm.R13, 0, asm.R12)
	b.ADDI(asm.R13, asm.R13, 1)
	b.SC(asm.R13, 0, asm.R12)
	b.BEQZ(asm.R13, "mp_inc")
	// Collision-pair counter at a rotated cell index (more unstructured
	// read-write sharing, as in the original MP3D).
	w.emitCellIndex(b, asm.F2, asm.F0, asm.F1, asm.R12)
	b.SLLI(asm.R12, asm.R12, 2)
	b.ADD(asm.R12, asm.R24, asm.R12)
	b.Label("mp_inc2")
	b.LL(asm.R13, 0, asm.R12)
	b.ADDI(asm.R13, asm.R13, 1)
	b.SC(asm.R13, 0, asm.R12)
	b.BEQZ(asm.R13, "mp_inc2")

	// Collision-buffer traffic: record this particle at entry li, then
	// probe strided candidate-partner entries. Reads dominate, so on the
	// shared-L1 architecture the buffer thrash costs blocking load
	// misses.
	b.CVTFI(asm.R8, asm.F0) // t = trunc(x), in [0,G)
	bufAt := func(mult int) {
		if mult == 1 {
			b.MOVE(asm.R9, asm.R16)
		} else {
			b.LI(asm.R10, int32(mult))
			b.MUL(asm.R9, asm.R16, asm.R10)
		}
		b.ANDI(asm.R9, asm.R9, mp3dBufEntries-1)
		b.SLLI(asm.R9, asm.R9, 4) // * mp3dBufStride
		b.ADD(asm.R9, asm.R27, asm.R9)
	}
	bufAt(1)
	b.SW(asm.R8, 0, asm.R9)
	for _, mult := range mp3dScanMults {
		bufAt(mult)
		b.LW(asm.R11, 0, asm.R9)
		b.ADD(asm.R26, asm.R26, asm.R11)
	}

	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R17, "mp_part")

	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)
	b.ADDI(asm.R21, asm.R21, 1)
	b.BLT(asm.R21, asm.R22, "mp_step")
	// Publish this CPU's buffer checksum.
	b.LA(asm.R8, "chk")
	b.SLLI(asm.R9, asm.R20, 2)
	b.ADD(asm.R8, asm.R8, asm.R9)
	b.SW(asm.R26, 0, asm.R8)
	b.HALT()

	guestlib.EmitRuntime(b)

	b.AlignData(8)
	b.DataLabel("consts")
	b.Float64(mp3dDt, mp3dEps, float64(w.Grid))
	b.AlignData(4)
	b.DataLabel("cells0")
	b.Zero(uint32(4 * w.cells()))
	b.DataLabel("cells1")
	b.Zero(uint32(4 * w.cells()))
	b.DataLabel("chk")
	b.Zero(uint32(4 * w.NumCPUs))
	guestlib.EmitBarrierData(b, "bar", w.NumCPUs)

	p, err := b.Assemble(TextBase, DataBase)
	if err != nil {
		return err
	}
	records := int64(w.Particles) * mp3dRecBytes
	regions := append(spmdRegions(p, w.NumCPUs),
		region{"particles", mp3dParticleBase, mp3dParticleBase + records},
		region{"aux table", mp3dParticleBase + mp3dAuxOffset, mp3dParticleBase + mp3dAuxOffset + records})
	for c := 0; c < w.NumCPUs; c++ {
		base := mp3dBufBase + int64(c)*mp3dBufSpacing
		regions = append(regions, region{fmt.Sprintf("cpu %d collision buffer", c), base, base + mp3dBufEntries*mp3dBufStride})
	}
	if err := checkLayout("mp3d", m, regions...); err != nil {
		return err
	}
	w.prog = p

	// Shared data is the program data section (census cells, constants,
	// barrier); the particle/aux/buffer regions are owned by single CPUs
	// and write back in the shared-L2 architecture's L1s.
	dataEnd := p.DataEnd()
	m.SetSharedData(func(a uint32) bool { return a >= DataBase && a < dataEnd })

	// Host-side data initialization (particles, aux, initial census) and
	// reference computation.
	st := w.initialState()
	setupSPMD(m, p, w.NumCPUs)
	for i := 0; i < w.Particles; i++ {
		base := uint32(mp3dParticleBase + i*mp3dRecBytes)
		m.Img.WriteF64(base, st.x[i])
		m.Img.WriteF64(base+8, st.y[i])
		m.Img.WriteF64(base+16, st.z[i])
		m.Img.WriteF64(base+24, st.vx[i])
		m.Img.WriteF64(base+32, st.vy[i])
		m.Img.WriteF64(base+40, st.vz[i])
		m.Img.WriteF64(base+uint32(mp3dAuxOffset), st.aux[i])
	}
	for c, v := range st.cells[0] {
		m.Img.Write32(p.Addr("cells0")+uint32(4*c), uint32(v))
	}
	w.ref = st
	w.advance(st)
	return nil
}

// emitCellIndex computes the census cell index of (fx,fy,fz) into rd,
// clamping each truncated coordinate into [0, G).
func (w *MP3D) emitCellIndex(b *asm.Builder, fx, fy, fz asm.FReg, rd asm.Reg) {
	// rd and R13/R14/R15 are scratch here; R25 holds G.
	clamp := func(f asm.FReg, r asm.Reg) {
		b.CVTFI(r, f)
		// if r < 0: r = 0
		b.BGE(r, asm.R0, fmt.Sprintf("mp_cl%d_a", w.clampSeq))
		b.LI(r, 0)
		b.Label(fmt.Sprintf("mp_cl%d_a", w.clampSeq))
		// if r >= G: r = G-1
		b.BLT(r, asm.R25, fmt.Sprintf("mp_cl%d_b", w.clampSeq))
		b.ADDI(r, asm.R25, -1)
		b.Label(fmt.Sprintf("mp_cl%d_b", w.clampSeq))
		w.clampSeq++
	}
	clamp(fx, rd)
	clamp(fy, asm.R14)
	clamp(fz, asm.R15)
	b.MUL(rd, rd, asm.R25)
	b.ADD(rd, rd, asm.R14)
	b.MUL(rd, rd, asm.R25)
	b.ADD(rd, rd, asm.R15)
}

// emitWrap applies periodic boundary wrap to f: F12 holds G, F13 zero.
func (w *MP3D) emitWrap(b *asm.Builder, f asm.FReg, axis string) {
	lo := fmt.Sprintf("mp_w%d_lo", w.clampSeq)
	hi := fmt.Sprintf("mp_w%d_hi", w.clampSeq)
	w.clampSeq++
	b.FLT(asm.R8, f, asm.F13) // f < 0 ?
	b.BEQZ(asm.R8, lo)
	b.FADDD(f, f, asm.F12)
	b.Label(lo)
	b.FLE(asm.R8, asm.F12, f) // f >= G ?
	b.BEQZ(asm.R8, hi)
	b.FSUBD(f, f, asm.F12)
	b.Label(hi)
}

// Validate implements Workload.
func (w *MP3D) Validate(m *core.Machine) error {
	st := w.ref
	for i := 0; i < w.Particles; i++ {
		base := uint32(mp3dParticleBase + i*mp3dRecBytes)
		if got := m.Img.ReadF64(base); got != st.x[i] {
			return fmt.Errorf("mp3d: particle %d x = %v, want %v", i, got, st.x[i])
		}
		if got := m.Img.ReadF64(base + 24); got != st.vx[i] {
			return fmt.Errorf("mp3d: particle %d vx = %v, want %v", i, got, st.vx[i])
		}
	}
	final := st.cells[w.Steps%2]
	base := w.prog.Addr("cells0")
	if w.Steps%2 == 1 {
		base = w.prog.Addr("cells1")
	}
	var total int32
	for c, v := range final {
		got := int32(m.Img.Read32(base + uint32(4*c)))
		if got != v {
			return fmt.Errorf("mp3d: cell %d census = %d, want %d", c, got, v)
		}
		total += got
	}
	// Each particle contributes two census increments per step (its own
	// cell plus the rotated collision-pair cell).
	if total != int32(2*w.Particles) {
		return fmt.Errorf("mp3d: census total = %d, want %d", total, 2*w.Particles)
	}
	chkBase := w.prog.Addr("chk")
	for c := 0; c < w.NumCPUs; c++ {
		if got := m.Img.Read32(chkBase + uint32(4*c)); got != st.chk[c] {
			return fmt.Errorf("mp3d: cpu %d buffer checksum = %#x, want %#x", c, got, st.chk[c])
		}
	}
	return nil
}
