package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

func readResults(paths string) ([]*result, error) {
	var out []*result
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := &result{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// side is one side of a comparison: the same workload in every result
// file given for that side (one file, or several runs separated by
// commas).
type side []*workloadResult

func workloadIn(results []*result, name string) side {
	var s side
	for _, r := range results {
		for i := range r.Workloads {
			if r.Workloads[i].Name == name {
				s = append(s, &r.Workloads[i])
			}
		}
	}
	return s
}

// values returns the side's samples of an end-to-end metric: the
// reported value of every run when there are several, else the single
// run's per-pass values (noisier than the reported value, so a
// one-file comparison leans towards "unresolved").
func (s side) values(metric string) (reported float64, samples []float64) {
	var v []float64
	for _, w := range s {
		if e, ok := w.EndToEnd[metric]; ok {
			v = append(v, e.Value)
			samples = e.Passes
		}
	}
	if len(v) > 1 {
		samples = v
	}
	return median(v), samples
}

// compareFiles reports, for every workload both sides hold, each
// end-to-end metric's two values (the median over a side's runs), their
// ratio (change / base), and a verdict: "worse" when the change is worse
// than the base by more than the metric's bound, "unresolved" when the
// base's own samples spread wider than the bound (unless every sample
// of the change beats every sample of the base), "ok" otherwise. Counts
// marked exact must be equal when the seeds are. It returns 1 if
// anything is worse or differs.
func compareFiles(w io.Writer, basePaths, changePaths string) int {
	base, err := readResults(basePaths)
	if err == nil {
		var change []*result
		if change, err = readResults(changePaths); err == nil {
			return compareResults(w, base, change)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compareResults(w io.Writer, base, change []*result) int {
	bad := 0
	for _, r := range [][]*result{base, change} {
		fmt.Fprintf(w, "%d runs: seed %d, %d procs, %s, %s\n", len(r), r[0].Seed, r[0].Host.NProc, r[0].Host.GoVersion, r[0].Host.CPUModel)
	}
	for _, sp := range specs {
		bs, cs := workloadIn(base, sp.name), workloadIn(change, sp.name)
		if len(bs) == 0 || len(cs) == 0 {
			continue
		}
		for _, m := range endToEndMetrics {
			b, bv := bs.values(m.name)
			c, cv := cs.values(m.name)
			if b == 0 || len(bv) == 0 || len(cv) == 0 {
				continue
			}
			ratio := c / b
			loss := ratio - 1 // share of the base by which the change is worse
			allBetter := slices.Max(cv) < slices.Min(bv)
			if m.better == "higher" {
				loss = 1 - ratio
				allBetter = slices.Min(cv) > slices.Max(bv)
			}
			spread := (slices.Max(bv) - slices.Min(bv)) / b
			verdict := "ok"
			switch {
			case loss > m.bound:
				verdict = "worse"
				bad++
			case spread > m.bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-18s base %10.5g  change %10.5g %-10s ratio %.4f of base  %-10s (bound %.0f%%, %s is better, base spread %.1f%% over %d samples)\n",
				sp.name, m.name, b, c, m.unit, ratio, verdict, m.bound*100, m.better, spread*100, len(bv))
		}
		// Exact counts: every run on either side that shares the first
		// base run's seed must agree with it.
		ref := bs[0]
		refSeed := base[0].Seed
		check := func(results []*result, s side) {
			for i, o := range s {
				if results[i].Seed != refSeed || o == ref {
					continue
				}
				if o.Digest != ref.Digest {
					fmt.Fprintf(w, "%-16s %-18s DIFFERS: simulated results changed\n", sp.name, "digest")
					bad++
				}
				for _, m := range perLayerMetrics {
					x, okX := ref.PerLayer[m.name]
					y, okY := o.PerLayer[m.name]
					if m.exact && okX && okY && x != y {
						fmt.Fprintf(w, "%-16s %-18s DIFFERS: %v and %v\n", sp.name, m.name, x, y)
						bad++
					}
				}
				if o.Failed != ref.Failed {
					fmt.Fprintf(w, "%-16s failed operations: %d of %d and %d of %d\n", sp.name, ref.Failed, ref.Attempted, o.Failed, o.Attempted)
					bad++
				}
			}
		}
		check(base, bs)
		check(change, cs)
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d metrics worse or different\n", bad)
		return 1
	}
	fmt.Fprintln(w, "every exact count equal, no end-to-end metric worse than its bound")
	return 0
}
