// Command simprof renders a guest cycle-attribution profile (written by
// cmpsim -prof-out or experiments -prof-out): hot guest functions and
// PCs with per-level stall columns, and the cache-line sharing heatmap
// with false-sharing candidates flagged. -folded also writes the PC
// profile as folded stacks for flamegraph tools.
//
//	cmpsim -workload mp3d -quick -prof-out p.json   # p.shared-l1.json, ...
//	simprof p.shared-mem.json
//	simprof -top 5 -folded mp3d.txt p.shared-mem.json
//	gzip -dc p.json.gz | simprof -                  # "-" or no arg = stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cmpsim/internal/cli"
	"cmpsim/internal/prof"
)

func main() {
	var top int
	cli.CountVar(flag.CommandLine, &top, "top", 15, 1, "rows per report table")
	folded := flag.String("folded", "", "also write folded-stack lines (flamegraph.pl input) to this file")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			cli.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	p, err := prof.ReadProfile(in)
	if err != nil {
		cli.Fatal(err)
	}
	p.WriteReport(os.Stdout, top)
	if *folded == "" {
		return
	}
	if err := cli.WriteFile(*folded, p.WriteFolded); err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("wrote folded stacks to %s\n", *folded)
}
