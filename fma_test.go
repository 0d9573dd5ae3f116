package cmpsim_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches a fused multiply-add in `go tool objdump` output
// (source line, mnemonic) under the arm64, ppc64 and riscv64 spellings.
var fusedOp = regexp.MustCompile(`^\s*(\S+:\d+)\s+0x[0-9a-f]+\s+[0-9a-f]+\s+(FN?M(?:ADD|SUB)[DS]?)\s`)

// TestNoFusedMultiplyAdd: the guest ISA has no fused multiply-add, so
// every guest product is rounded before it is added, and host code that
// seeds or mirrors guest floating point must round the same way, or
// inputs, validation and printed figures depend on the host CPU. Go may
// fuse x*y + z on arm64, ppc64le and riscv64 unless the product is
// converted explicitly, float64(x*y) (Go spec, "Floating-point
// operators"). The test cross-compiles cmd/cmpsim for those three and
// fails on any fused instruction in a cmpsim function, naming it.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles cmd/cmpsim for three architectures")
	}
	for _, arch := range []string{"arm64", "ppc64le", "riscv64"} {
		bin := filepath.Join(t.TempDir(), "cmpsim")
		build := exec.Command("go", "build", "-o", bin, "./cmd/cmpsim")
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", arch, err, out)
		}
		dump, err := exec.Command("go", "tool", "objdump", "-s", "^cmpsim/", bin).Output()
		if err != nil {
			t.Fatalf("%s: objdump: %v", arch, err)
		}
		var fn string
		for _, line := range strings.Split(string(dump), "\n") {
			if text, ok := strings.CutPrefix(line, "TEXT "); ok {
				fn = strings.Fields(text)[0]
			} else if m := fusedOp.FindStringSubmatch(line); m != nil {
				t.Errorf("%s: %s in %s at %s (convert the product: float64(x*y))", arch, m[2], fn, m[1])
			}
		}
	}
}
