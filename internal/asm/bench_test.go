package asm_test

import (
	"testing"

	"cmpsim/internal/mem"
	"cmpsim/internal/workload"
)

// BenchmarkAssemble builds, assembles and loads the full-size Ocean
// program into a fresh workload-sized image: the per-cell cost of a
// guest program. Ocean declares the most uninitialized data (its four
// grids), so B/op shows what zeros cost.
func BenchmarkAssemble(b *testing.B) {
	w := workload.NewOcean(workload.OceanParams{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld, err := w.Emit()
		if err != nil {
			b.Fatal(err)
		}
		p, err := bld.Assemble(workload.TextBase, workload.DataBase)
		if err != nil {
			b.Fatal(err)
		}
		p.Load(mem.NewImage(workload.MemBytes), 0)
	}
}
