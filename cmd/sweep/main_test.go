package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"cmpsim/internal/benchfig"
)

// TestValuesMustFitTheirField: a value wider than its Config field is
// refused with the parameter's name, not truncated into a point that
// runs one design and prints another.
func TestValuesMustFitTheirField(t *testing.T) {
	for _, tc := range []struct {
		param, values string
		ok            bool
	}{
		{"l1dsize", "16384,4294967295", true},
		{"l1dsize", "16384,4294983680", false}, // 1<<32 + 16 KiB
		{"l2assoc", "134217728", true},         // fits; memsys.Config.Validate refuses the geometry
		{"sharedl1banks", "4294967296", false},
		{"wbuf", "9223372036854775808", false}, // 1<<63
		{"memlat", "18446744073709551615", true},
		{"mshrs", "4,x", false},
	} {
		points, err := parseValues(tc.param, tc.values)
		if tc.ok && (err != nil || len(points) != len(strings.Split(tc.values, ","))) {
			t.Errorf("-param %s -values %s: %v, %v; want every point", tc.param, tc.values, points, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "-param "+tc.param+":")) {
			t.Errorf("-param %s -values %s: error %v, want one naming the parameter", tc.param, tc.values, err)
		}
	}
	for name, p := range benchfig.Knobs {
		if p.Max == 0 {
			t.Errorf("-param %s has no largest value", name)
		}
	}
}

// TestSharedL1HitRefusedUnderMXS runs the command in a child process:
// the MXS model fixes the shared-L1 hit time, so sweeping it under
// -model mxs exits 2 with the reason before any point runs.
func TestSharedL1HitRefusedUnderMXS(t *testing.T) {
	if os.Getenv("SWEEP_TEST_MAIN") == "1" {
		os.Args = []string{"sweep", "-workload", "ear", "-arch", "shared-l1", "-model", "mxs", "-param", "sharedl1hit", "-values", "1,5"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSharedL1HitRefusedUnderMXS$")
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("child exited with %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "fixes the shared-L1 hit time at 3 cycles") || !strings.Contains(string(out), "Section 4.4") {
		t.Errorf("output does not give the reason:\n%s", out)
	}
}
