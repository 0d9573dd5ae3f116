package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestSetExitsTwo runs the command in a child process per case: each
// bad -set ends it with exit status 2 and the reason before any run.
func TestSetExitsTwo(t *testing.T) {
	if args := os.Getenv("CMPSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"cmpsim", "-workload", "eqntott", "-quick"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, c := range []struct{ args, want string }{
		{"-set l3assoc=4", `unknown knob "l3assoc"`},
		{"-set wbuf=9223372036854775808", "wbuf: value 9223372036854775808 does not fit its field"},
		{"-set l2assoc=1,4 -set c2clat=50,60", "a second swept knob after l2assoc"},
		{"-model mxs -arch shared-l1 -set sharedl1hit=1,5", "fixes the shared-L1 hit time at 3 cycles"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSetExitsTwo$")
		cmd.Env = append(os.Environ(), "CMPSIM_TEST_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: child exited with %v, want status 2; output:\n%s", c.args, err, out)
		} else if !strings.Contains(string(out), c.want) {
			t.Errorf("%s: output does not say %q:\n%s", c.args, c.want, out)
		}
	}
}
