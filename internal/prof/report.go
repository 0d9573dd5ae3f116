package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders a frozen Profile. Every renderer iterates sorted
// slices only and breaks ranking ties by address/name, so output is
// byte-deterministic for a given Profile — the property the simprof
// regression tests pin across repeated runs and worker counts.

// FuncAt resolves a physical PC to the nearest preceding text symbol,
// returning its name and the PC's offset from it. Loop-head labels
// count as symbols, so attribution is at label granularity (e.g. a
// hot inner loop shows under its own label, not just the function).
// PCs outside every text symbol resolve to ("", 0) with ok=false.
func (p *Profile) FuncAt(pc uint32) (name string, off uint32, ok bool) {
	return p.symAt(pc, true)
}

// DataAt resolves a physical address to the data symbol containing
// it, mirroring FuncAt for the heatmap's line annotations.
func (p *Profile) DataAt(addr uint32) (name string, off uint32, ok bool) {
	return p.symAt(addr, false)
}

func (p *Profile) symAt(addr uint32, text bool) (string, uint32, bool) {
	best := -1
	// Symbols are sorted by Start; take the last one at or below addr
	// whose range still contains it.
	lo, hi := 0, len(p.Symbols)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Symbols[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo - 1; i >= 0; i-- {
		s := &p.Symbols[i]
		if s.Text == text && s.Start <= addr && addr < s.End {
			best = i
			break
		}
		if s.End <= addr && s.Text == text {
			break // sorted: nothing earlier can contain addr either
		}
	}
	if best < 0 {
		return "", 0, false
	}
	return p.Symbols[best].Name, addr - p.Symbols[best].Start, true
}

// locLabel formats "name+0xOFF" (or bare name at offset 0), falling
// back to the raw address when no symbol contains it.
func (p *Profile) locLabel(addr uint32, text bool) string {
	name, off, ok := p.symAt(addr, text)
	if !ok {
		return fmt.Sprintf("0x%08x", addr)
	}
	if off == 0 {
		return name
	}
	return fmt.Sprintf("%s+0x%x", name, off)
}

// FuncRow is one row of the hot-function table: all PCEntry counters
// of the PCs resolving to one text symbol, summed.
type FuncRow struct {
	Name    string
	Retired uint64
	IStall  [NumLevels]uint64
	DStall  [NumLevels]uint64
	Pipe    uint64
}

// Cycles returns the total cycles attributed to the function.
func (r *FuncRow) Cycles() uint64 {
	n := r.Retired + r.Pipe
	for l := 0; l < NumLevels; l++ {
		n += r.IStall[l] + r.DStall[l]
	}
	return n
}

// HotFuncs aggregates the PC profile to text symbols, sorted by total
// attributed cycles descending (ties by name). PCs outside any symbol
// aggregate under their own "0xADDR" pseudo-symbol.
func (p *Profile) HotFuncs() []FuncRow {
	idx := map[string]*FuncRow{}
	var order []string
	for i := range p.PCs {
		e := &p.PCs[i]
		name, _, ok := p.symAt(e.PC, true)
		if !ok {
			name = fmt.Sprintf("0x%08x", e.PC)
		}
		r := idx[name]
		if r == nil {
			r = &FuncRow{Name: name}
			idx[name] = r
			order = append(order, name)
		}
		r.Retired += e.Retired
		r.Pipe += e.Pipe
		for l := 0; l < NumLevels; l++ {
			r.IStall[l] += e.IStall[l]
			r.DStall[l] += e.DStall[l]
		}
	}
	rows := make([]FuncRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, *idx[name])
	}
	sort.SliceStable(rows, func(i, j int) bool {
		ci, cj := rows[i].Cycles(), rows[j].Cycles()
		if ci != cj {
			return ci > cj
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// WriteHotFuncs renders the top-N hot functions with per-level stall
// columns (istall summed across levels; dstall split by level).
func (p *Profile) WriteHotFuncs(w io.Writer, top int) {
	rows := p.HotFuncs()
	fmt.Fprintf(w, "--- hot functions (top %d of %d) ---\n", min(top, len(rows)), len(rows))
	fmt.Fprintf(w, "%-24s %12s %12s %9s %9s %9s %9s %9s %9s\n",
		"function", "cycles", "busy", "istall", "d"+LevelNames[0], "d"+LevelNames[1], "d"+LevelNames[2], "d"+LevelNames[3], "pipe")
	for i := 0; i < len(rows) && i < top; i++ {
		r := &rows[i]
		var is uint64
		for l := 0; l < NumLevels; l++ {
			is += r.IStall[l]
		}
		fmt.Fprintf(w, "%-24s %12d %12d %9d %9d %9d %9d %9d %9d\n",
			clip(r.Name, 24), r.Cycles(), r.Retired, is,
			r.DStall[0], r.DStall[1], r.DStall[2], r.DStall[3], r.Pipe)
	}
}

// WriteHotPCs renders the top-N individual PCs with symbol+offset
// annotations.
func (p *Profile) WriteHotPCs(w io.Writer, top int) {
	order := make([]int, len(p.PCs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ci, cj := p.PCs[order[a]].Cycles(), p.PCs[order[b]].Cycles()
		if ci != cj {
			return ci > cj
		}
		return p.PCs[order[a]].PC < p.PCs[order[b]].PC
	})
	fmt.Fprintf(w, "--- hot PCs (top %d of %d) ---\n", min(top, len(order)), len(order))
	fmt.Fprintf(w, "%-10s %-28s %12s %9s %9s %9s %9s\n",
		"pc", "location", "cycles", "busy", "istall", "dstall", "pipe")
	for i := 0; i < len(order) && i < top; i++ {
		e := &p.PCs[order[i]]
		var is, ds uint64
		for l := 0; l < NumLevels; l++ {
			is += e.IStall[l]
			ds += e.DStall[l]
		}
		fmt.Fprintf(w, "0x%08x %-28s %12d %9d %9d %9d %9d\n",
			e.PC, clip(p.locLabel(e.PC, true), 28), e.Cycles(), e.Retired, is, ds, e.Pipe)
	}
}

// WriteHeatmap renders the top-N cache lines by coherence traffic
// (invalidations + cache-to-cache transfers, ties by miss count then
// address): the line-sharing "heatmap". Each row shows the owning
// data symbol, traffic counters, the per-CPU read/write footprint
// ("0:rw 2:r" = CPU0 read+wrote the line, CPU2 only read it), the
// hottest writer→reader pairs, and a FALSE flag on false-sharing
// candidates.
func (p *Profile) WriteHeatmap(w io.Writer, top int) {
	order := make([]int, 0, len(p.Lines))
	for i := range p.Lines {
		if p.Lines[i].Traffic() > 0 || p.Lines[i].Misses > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := &p.Lines[order[a]], &p.Lines[order[b]]
		if la.Traffic() != lb.Traffic() {
			return la.Traffic() > lb.Traffic()
		}
		if la.Misses != lb.Misses {
			return la.Misses > lb.Misses
		}
		return la.Addr < lb.Addr
	})
	fmt.Fprintf(w, "--- line sharing heatmap (top %d of %d lines with traffic) ---\n",
		min(top, len(order)), len(order))
	fmt.Fprintf(w, "%-10s %-24s %8s %8s %8s %7s %7s %-19s %-20s %s\n",
		"line", "data symbol", "reads", "writes", "misses", "inval", "c2c", "sharers", "pairs", "flag")
	for i := 0; i < len(order) && i < top; i++ {
		e := &p.Lines[order[i]]
		flag := ""
		if e.FalseSharing {
			flag = "FALSE-SHARING?"
		}
		fmt.Fprintf(w, "0x%08x %-24s %8d %8d %8d %7d %7d %-19s %-20s %s\n",
			e.Addr, clip(p.locLabel(e.Addr, false), 24),
			e.Reads, e.Writes, e.Misses, e.Invals, e.C2C,
			clip(sharers(e), 19), clip(pairs(e, 3), 20), flag)
	}
}

// sharers formats the per-CPU footprint: "0:rw 1:r" means CPU0 read
// and wrote the line while CPU1 only read it.
func sharers(e *LineEntry) string {
	var sb strings.Builder
	for i, t := range e.Touch {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d:r", t.CPU)
		if t.WriteMask != 0 {
			sb.WriteByte('w')
		}
	}
	return sb.String()
}

// pairs formats the top-n writer→reader pairs by count.
func pairs(e *LineEntry, n int) string {
	order := make([]int, len(e.Pairs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := &e.Pairs[order[a]], &e.Pairs[order[b]]
		if pa.Count != pb.Count {
			return pa.Count > pb.Count
		}
		if pa.Writer != pb.Writer {
			return pa.Writer < pb.Writer
		}
		return pa.Reader < pb.Reader
	})
	var sb strings.Builder
	for i := 0; i < len(order) && i < n; i++ {
		pr := &e.Pairs[order[i]]
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d>%d:%d", pr.Writer, pr.Reader, pr.Count)
	}
	return sb.String()
}

// WriteFolded emits the PC profile as folded stacks for flamegraph
// tools (one "frame;frame;frame count" line per PC, cycles as the
// count), ordered by stack string.
func (p *Profile) WriteFolded(w io.Writer) error {
	lines := make([]string, 0, len(p.PCs))
	root := p.Workload
	if root == "" {
		root = "all"
	}
	for i := range p.PCs {
		e := &p.PCs[i]
		cyc := e.Cycles()
		if cyc == 0 {
			continue
		}
		fn, _, ok := p.symAt(e.PC, true)
		if !ok {
			fn = "?"
		}
		lines = append(lines, fmt.Sprintf("%s;%s;%s;0x%08x %d", root, p.Arch, fn, e.PC, cyc))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport renders the full three-part report: hot functions, hot
// PCs, and the line-sharing heatmap.
func (p *Profile) WriteReport(w io.Writer, top int) {
	name := p.Workload
	if name == "" {
		name = "?"
	}
	fmt.Fprintf(w, "=== profile: %s / %s / %s (%d CPUs, %dB lines) ===\n",
		name, p.Arch, p.Model, p.NumCPUs, p.LineBytes)
	p.WriteHotFuncs(w, top)
	p.WriteHotPCs(w, top)
	p.WriteHeatmap(w, top)
}

// WriteJSON serializes the profile (indented, key-sorted via the
// struct field order — byte-deterministic). cmd/simprof reads it
// back.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadProfile deserializes a profile written by WriteJSON.
func ReadProfile(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("prof: decode profile: %w", err)
	}
	return &p, nil
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "~"
}
