package mem_test

import (
	"runtime"
	"testing"

	"cmpsim/internal/mem"
	"cmpsim/internal/workload"
)

// TestNewImageAllocatesOnlyTheTable: a workload-sized image costs its
// page table, not its 32 MiB. The table is 2 048 pointers, which the
// allocator rounds up to 18 KiB. The least of three tries counts: the
// count is process-wide, and under -race the test runner has been seen
// to allocate inside the window.
func TestNewImageAllocatesOnlyTheTable(t *testing.T) {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		img := mem.NewImage(workload.MemBytes)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(img)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 20<<10 {
		t.Errorf("NewImage(%d) allocated %d bytes, want at most 20 KiB for its 2 048-pointer page table", workload.MemBytes, least)
	}
}

// BenchmarkImageNew is the per-cell cost of a guest image.
func BenchmarkImageNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runtime.KeepAlive(mem.NewImage(workload.MemBytes))
	}
}

// BenchmarkImageAccess is the guest's load/store path on pages that
// are already present: a Read32 and a Write32 per op, striding across
// sixteen pages. It must not allocate.
func BenchmarkImageAccess(b *testing.B) {
	const span = 256 << 10
	img := mem.NewImage(workload.MemBytes)
	for a := uint32(workload.DataBase); a < workload.DataBase+span; a += 4 {
		img.Write32(a, a) // present, and non-zero so the loop writes never hit an absent page
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint32
	for i := 0; i < b.N; i++ {
		a := workload.DataBase + uint32(i*4100)%span&^3
		v := img.Read32(a)
		img.Write32(a, v+1)
		sum += v
	}
	runtime.KeepAlive(sum)
}
