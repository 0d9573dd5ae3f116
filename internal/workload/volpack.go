package workload

import (
	"fmt"
	"math/rand"

	"cmpsim/internal/asm"
	"cmpsim/internal/core"
	"cmpsim/internal/guestlib"
)

// Volpack reproduces the parallel shear-warp volume renderer (Section
// 3.2.1, Lacroute's algorithm): a shading lookup table is computed in
// parallel, each processor then composites voxel scanlines into its
// portion of the intermediate image by pulling two-scanline tasks from a
// queue (dynamic task stealing for load balance), and finally the
// intermediate image is warped in parallel into the framebuffer. Because
// shear-warp processes voxels in storage order, the L1 replacement miss
// rate is low (~1% in the paper) and synchronization — the task queue
// and the phase barriers — is a significant fraction of time, which is
// what the shared-cache architectures reduce (Figure 7).
type Volpack struct {
	Size    int // image edge and voxel rows/cols (default 64)
	Depth   int // voxel slices composited per pixel (default 32)
	NumCPUs int

	prog     *asm.Program
	refInter []float64
	refFinal []float64
	seed     int64
}

// VolpackParams configures Volpack; zero fields take defaults.
type VolpackParams struct {
	Size, Depth int
}

// NewVolpack builds the workload; zero params mean the default scale.
func NewVolpack(p VolpackParams) *Volpack {
	w := &Volpack{Size: 64, Depth: 32, NumCPUs: 4, seed: 12}
	if p.Size > 0 {
		w.Size = p.Size
	}
	if p.Depth > 0 {
		w.Depth = p.Depth
	}
	return w
}

func init() { register("volpack", func() Workload { return NewVolpack(VolpackParams{}) }) }

const (
	volpackVoxBase = 0x0040_0000 // voxel volume (read-only shared)
	volpackCut     = 12.0        // early-termination opacity threshold
	volpackTblLen  = 256
)

// Name implements Workload.
func (w *Volpack) Name() string { return "volpack" }

// Description implements Workload.
func (w *Volpack) Description() string {
	return "shear-warp volume renderer: low miss rates, task-queue synchronization"
}

// MemBytes implements Workload.
func (w *Volpack) MemBytes() uint32 { return MemBytes }

// Threads implements Workload.
func (w *Volpack) Threads() int { return w.NumCPUs }

func (w *Volpack) voxels() []uint8 {
	rng := rand.New(rand.NewSource(w.seed))
	v := make([]uint8, w.Depth*w.Size*w.Size)
	for i := range v {
		v[i] = uint8(rng.Intn(256))
	}
	return v
}

// shadeTable and weightTable round each product before the add
// (float64(x*y)), as the guest does: no fused multiply-add on any host.
func shadeTable() []float64 {
	t := make([]float64, volpackTblLen)
	for i := range t {
		fi := float64(int32(i))
		t[i] = 1.0 / (1.0 + float64(fi*fi*0.001))
	}
	return t
}

func weightTable(depth int) []float64 {
	t := make([]float64, depth)
	for z := range t {
		t[z] = 1.0 / (1.0 + float64(float64(int32(z))*0.25))
	}
	return t
}

// reference mirrors the guest composite and warp exactly.
func (w *Volpack) reference(vox []uint8) (inter, final []float64) {
	n, d := w.Size, w.Depth
	table := shadeTable()
	wt := weightTable(d)
	inter = make([]float64, n*n)
	for y := 0; y < n; y++ {
		for z := 0; z < d; z++ {
			row := (y + z) & (n - 1) // shear
			for x := 0; x < n; x++ {
				if inter[y*n+x] > volpackCut {
					continue // early ray termination
				}
				v := vox[(z*n+row)*n+x]
				inter[y*n+x] += float64(table[v] * wt[z])
			}
		}
	}
	final = make([]float64, n*n)
	for y := 0; y < n; y++ {
		src := (y + 17) & (n - 1) // the warp resamples across task rows
		for x := 0; x < n; x++ {
			final[y*n+x] = 0.5 * (inter[y*n+x] + inter[src*n+x])
		}
	}
	return inter, final
}

// Configure implements Workload.
func (w *Volpack) Configure(m *core.Machine) error {
	w.NumCPUs = m.Cfg.NumCPUs
	n, d := w.Size, w.Depth
	if n&(n-1) != 0 {
		return fmt.Errorf("volpack: size %d must be a power of two", n)
	}
	if n%(2*w.NumCPUs) != 0 {
		return fmt.Errorf("volpack: size %d must divide into two-scanline tasks across %d CPUs", n, w.NumCPUs)
	}
	nTasks := n / 2

	b := asm.NewBuilder()
	// R20 tid; R25 = n; R24 = d. Phase temporaries documented inline.
	b.Label("start")
	b.MOVE(asm.R20, asm.A0)
	b.LI(asm.R25, int32(n))
	b.LI(asm.R24, int32(d))

	// --- Phase 1: shading table, split across CPUs ---
	// table[i] = 1 / (1 + i*i*0.001) for i in [tid*len/4, ...).
	per := volpackTblLen / w.NumCPUs
	b.LA(asm.R8, "consts")
	b.LD(asm.F10, 0, asm.R8)  // 1.0
	b.LD(asm.F11, 8, asm.R8)  // 0.001
	b.LD(asm.F12, 16, asm.R8) // 0.5
	b.LD(asm.F13, 24, asm.R8) // cut
	b.LI(asm.R9, int32(per))
	b.MUL(asm.R16, asm.R20, asm.R9) // i
	b.ADDI(asm.R17, asm.R16, int32(per))
	b.LA(asm.R18, "table")
	b.Label("vp_tbl")
	b.CVTIF(asm.F0, asm.R16)
	b.FMULD(asm.F0, asm.F0, asm.F0)
	b.FMULD(asm.F0, asm.F0, asm.F11)
	b.FADDD(asm.F0, asm.F0, asm.F10)
	b.FDIVD(asm.F0, asm.F10, asm.F0)
	b.SLLI(asm.R9, asm.R16, 3)
	b.ADD(asm.R9, asm.R18, asm.R9)
	b.SD(asm.F0, 0, asm.R9)
	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R17, "vp_tbl")
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)

	// --- Phase 2: composite via the task queue ---
	b.Label("vp_next")
	b.LA(asm.A0, "queue")
	b.JAL(guestlib.LTaskNext)
	b.LI(asm.R8, -1)
	b.BEQ(asm.RV, asm.R8, "vp_comp_done")
	// Task RV covers intermediate rows 2*RV and 2*RV+1.
	b.SLLI(asm.R21, asm.RV, 1) // first row
	b.ADDI(asm.R22, asm.R21, 2)
	b.Label("vp_row")
	// R16 = z loop.
	b.LI(asm.R16, 0)
	b.Label("vp_z")
	// voxel row = (y + z) & (n-1); row base = vox + ((z*n + row) * n).
	b.ADD(asm.R9, asm.R21, asm.R16)
	b.ANDI(asm.R9, asm.R9, uint32(n-1))
	b.MUL(asm.R10, asm.R16, asm.R25)
	b.ADD(asm.R10, asm.R10, asm.R9)
	b.MUL(asm.R10, asm.R10, asm.R25)
	b.LIU(asm.R11, volpackVoxBase)
	b.ADD(asm.R10, asm.R11, asm.R10) // voxel row base
	// weight wz in F1.
	b.LA(asm.R11, "wtab")
	b.SLLI(asm.R12, asm.R16, 3)
	b.ADD(asm.R11, asm.R11, asm.R12)
	b.LD(asm.F1, 0, asm.R11)
	// image row base in R12.
	b.MUL(asm.R12, asm.R21, asm.R25)
	b.SLLI(asm.R12, asm.R12, 3)
	b.LA(asm.R11, "inter")
	b.ADD(asm.R12, asm.R11, asm.R12)
	// x loop: R17.
	b.LI(asm.R17, 0)
	b.Label("vp_x")
	b.SLLI(asm.R9, asm.R17, 3)
	b.ADD(asm.R9, asm.R12, asm.R9) // &img[y][x]
	b.LD(asm.F2, 0, asm.R9)
	b.FLT(asm.R11, asm.F13, asm.F2) // cut < img ?
	b.BNEZ(asm.R11, "vp_skip")      // early ray termination
	b.ADD(asm.R13, asm.R10, asm.R17)
	b.LB(asm.R13, 0, asm.R13) // voxel
	b.SLLI(asm.R13, asm.R13, 3)
	b.LA(asm.R14, "table")
	b.ADD(asm.R13, asm.R14, asm.R13)
	b.LD(asm.F3, 0, asm.R13)
	b.FMULD(asm.F3, asm.F3, asm.F1)
	b.FADDD(asm.F2, asm.F2, asm.F3)
	b.SD(asm.F2, 0, asm.R9)
	b.Label("vp_skip")
	b.ADDI(asm.R17, asm.R17, 1)
	b.BLT(asm.R17, asm.R25, "vp_x")
	b.ADDI(asm.R16, asm.R16, 1)
	b.BLT(asm.R16, asm.R24, "vp_z")
	b.ADDI(asm.R21, asm.R21, 1)
	b.BLT(asm.R21, asm.R22, "vp_row")
	b.J("vp_next")
	b.Label("vp_comp_done")
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)

	// --- Phase 3: warp; each CPU owns n/4 final rows ---
	rows := n / w.NumCPUs
	b.LI(asm.R9, int32(rows))
	b.MUL(asm.R21, asm.R20, asm.R9)
	b.ADDI(asm.R22, asm.R21, int32(rows))
	b.Label("vp_w_y")
	b.ADDI(asm.R9, asm.R21, 17)
	b.ANDI(asm.R9, asm.R9, uint32(n-1)) // src row
	b.MUL(asm.R10, asm.R9, asm.R25)
	b.SLLI(asm.R10, asm.R10, 3)
	b.LA(asm.R11, "inter")
	b.ADD(asm.R10, asm.R11, asm.R10) // &inter[src][0]
	b.MUL(asm.R12, asm.R21, asm.R25)
	b.SLLI(asm.R12, asm.R12, 3)
	b.ADD(asm.R13, asm.R11, asm.R12) // &inter[y][0]
	b.LA(asm.R11, "final")
	b.ADD(asm.R14, asm.R11, asm.R12) // &final[y][0]
	b.LI(asm.R17, 0)
	b.Label("vp_w_x")
	b.SLLI(asm.R9, asm.R17, 3)
	b.ADD(asm.R15, asm.R13, asm.R9)
	b.LD(asm.F0, 0, asm.R15)
	b.ADD(asm.R15, asm.R10, asm.R9)
	b.LD(asm.F1, 0, asm.R15)
	b.FADDD(asm.F0, asm.F0, asm.F1)
	b.FMULD(asm.F0, asm.F0, asm.F12)
	b.ADD(asm.R15, asm.R14, asm.R9)
	b.SD(asm.F0, 0, asm.R15)
	b.ADDI(asm.R17, asm.R17, 1)
	b.BLT(asm.R17, asm.R25, "vp_w_x")
	b.ADDI(asm.R21, asm.R21, 1)
	b.BLT(asm.R21, asm.R22, "vp_w_y")
	b.LA(asm.A0, "bar")
	b.MOVE(asm.A1, asm.R20)
	b.JAL(guestlib.LBarrierWait)
	b.HALT()

	guestlib.EmitRuntime(b)

	b.AlignData(8)
	b.DataLabel("consts")
	b.Float64(1.0, 0.001, 0.5, volpackCut)
	b.DataLabel("table")
	b.Zero(uint32(8 * volpackTblLen))
	b.DataLabel("wtab")
	b.Zero(uint32(8 * d))
	b.DataLabel("inter")
	b.Zero(uint32(8 * n * n))
	b.DataLabel("final")
	b.Zero(uint32(8 * n * n))
	guestlib.EmitTaskQueueData(b, "queue", uint32(nTasks))
	guestlib.EmitBarrierData(b, "bar", w.NumCPUs)

	p, err := b.Assemble(TextBase, DataBase)
	if err != nil {
		return err
	}
	volume := region{"volume", volpackVoxBase, volpackVoxBase + int64(d)*int64(n)*int64(n)}
	if err := checkLayout("volpack", m, append(spmdRegions(p, w.NumCPUs), volume)...); err != nil {
		return err
	}
	w.prog = p
	setupSPMD(m, p, w.NumCPUs)

	vox := w.voxels()
	for i, v := range vox {
		m.Img.Write8(volpackVoxBase+uint32(i), v)
	}
	for i, v := range weightTable(d) {
		m.Img.WriteF64(p.Addr("wtab")+uint32(8*i), v)
	}
	w.refInter, w.refFinal = w.reference(vox)
	return nil
}

// Validate implements Workload.
func (w *Volpack) Validate(m *core.Machine) error {
	n := w.Size
	// The shading table itself (computed by the guest).
	ref := shadeTable()
	for i, want := range ref {
		if got := m.Img.ReadF64(w.prog.Addr("table") + uint32(8*i)); got != want {
			return fmt.Errorf("volpack: table[%d] = %v, want %v", i, got, want)
		}
	}
	for i := 0; i < n*n; i++ {
		if got := m.Img.ReadF64(w.prog.Addr("inter") + uint32(8*i)); got != w.refInter[i] {
			return fmt.Errorf("volpack: inter[%d][%d] = %v, want %v", i/n, i%n, got, w.refInter[i])
		}
		if got := m.Img.ReadF64(w.prog.Addr("final") + uint32(8*i)); got != w.refFinal[i] {
			return fmt.Errorf("volpack: final[%d][%d] = %v, want %v", i/n, i%n, got, w.refFinal[i])
		}
	}
	return nil
}
