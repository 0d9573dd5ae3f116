package cmpsim_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches a fused multiply-add in the compiler's -S listing
// (source line, mnemonic) under the arm64, ppc64 and riscv64 spellings.
var fusedOp = regexp.MustCompile(`^\s+0x[0-9a-f]+ \d+ \(([^)]+:\d+)\)\s+(FN?M(?:ADD|SUB)[DS]?)\s`)

// TestNoFusedMultiplyAdd: the guest ISA has no fused multiply-add, so
// every guest product is rounded before it is added, and host code that
// seeds or mirrors guest floating point must round the same way, or
// inputs, validation and printed figures depend on the host CPU. Go may
// fuse x*y + z on arm64, ppc64le and riscv64 unless the product is
// converted explicitly, float64(x*y) (Go spec, "Floating-point
// operators"). The test compiles every package of the module for those
// three with the assembly listing on (go list -export compiles without
// linking, and a cached compile replays its listing) and fails on any
// fused instruction in a cmpsim function, naming it.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module for three architectures")
	}
	for _, arch := range []string{"arm64", "ppc64le", "riscv64"} {
		list := func(args ...string) ([]byte, error) {
			cmd := exec.Command("go", append([]string{"list", "-export"}, args...)...)
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
			return cmd.CombinedOutput()
		}
		out, err := list("-gcflags=cmpsim/...=-S", "./...")
		if err != nil {
			msg, _ := list("./...") // the error without megabytes of listing
			t.Fatalf("%s: %v\n%s", arch, err, msg)
		}
		var fn string
		for _, line := range strings.Split(string(out), "\n") {
			if name, _, ok := strings.Cut(line, " STEXT "); ok {
				fn = name
			} else if m := fusedOp.FindStringSubmatch(line); m != nil {
				t.Errorf("%s: %s in %s at %s (convert the product: float64(x*y))", arch, m[2], fn, m[1])
			}
		}
	}
}
