//go:build !race

package cmpsim_test

// raceBuild is set under the race detector, which leaves out the
// ledger's paper-size rows (ledgerJobs).
const raceBuild = false
