package cmpsim_test

import (
	"fmt"
	"sort"
	"testing"

	"cmpsim"
)

func TestPublicAPISurface(t *testing.T) {
	if got := cmpsim.Architectures(); len(got) != 3 {
		t.Fatalf("Architectures = %v", got)
	}
	names := cmpsim.Workloads()
	want := []string{"ear", "eqntott", "fft", "latprobe", "mp3d", "ocean", "pmake", "volpack"}
	sort.Strings(names)
	if len(names) != len(want) {
		t.Fatalf("Workloads = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Workloads = %v, want %v", names, want)
		}
	}
	if _, err := cmpsim.NewWorkload("nope"); err == nil {
		t.Error("unknown workload should error")
	}
	cfg := cmpsim.DefaultConfig()
	if cfg.NumCPUs != 4 || cfg.MemLat != 50 || cfg.SharedL2Lat != 14 {
		t.Errorf("DefaultConfig does not carry the paper's parameters: %+v", cfg)
	}
}

func TestPublicRunAndFigure(t *testing.T) {
	runs := map[cmpsim.Arch]*cmpsim.Result{}
	for _, arch := range cmpsim.Architectures() {
		w, err := cmpsim.NewWorkload("latprobe")
		if err != nil {
			t.Fatal(err)
		}
		res, err := cmpsim.RunWorkload(w, arch, cmpsim.ModelMipsy, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[arch] = res
		b := cmpsim.BreakdownOf(res)
		if b.Total != float64(res.Cycles) {
			t.Errorf("%s: breakdown total %v != cycles %d", arch, b.Total, res.Cycles)
		}
	}
	fig := cmpsim.BuildFigure("t", "latprobe", cmpsim.ModelMipsy, runs)
	if len(fig.Rows) != 3 || fig.Chart() == "" {
		t.Error("figure incomplete")
	}
}

// Example demonstrates the one-call entry point.
func Example() {
	w, _ := cmpsim.NewWorkload("ear")
	res, err := cmpsim.RunWorkload(w, cmpsim.SharedL1, cmpsim.ModelMipsy, nil)
	if err != nil {
		panic(err)
	}
	b := cmpsim.BreakdownOf(res)
	fmt.Printf("memory stalls below 1%%: %v\n", b.MemStall()/b.Total < 0.01)
	// Output:
	// memory stalls below 1%: true
}
