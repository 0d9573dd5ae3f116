// Package fixture seeds result-cache contract violations. The test
// loads it with relPath "internal/memsys" so its Config struct is
// audited against the fingerprint rules; with no internal/runner in the
// fixture universe, nothing is nil-checked, so every skipped field
// needs an exemption.
package fixture

import "os"

type tracer struct {
	n int
}

// Config mimics memsys.Config for the fingerprint audit.
type Config struct {
	NumCPUs   int
	LineBytes uint32

	Trace *tracer // want "skipped by the cache fingerprint"

	//simlint:cachekey-exempt — fixture: asserted output-neutral
	Sampler *tracer // ok: exempted with the neutrality argument

	Lookup map[string]int // want "cannot render canonically"
}

// loadMode reads configuration the fingerprint cannot see.
func loadMode() string {
	return os.Getenv("CMPSIM_MODE") // want "reads configuration outside memsys.Config"
}

var mode string

func setMode(m string) {
	mode = m // want "mutated outside init"
}

func init() {
	mode = "default" // ok: the link-time plugin pattern
}
