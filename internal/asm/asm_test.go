package asm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cmpsim/internal/isa"
	"cmpsim/internal/mem"
)

func TestLabelsAndBranches(t *testing.T) {
	b := NewBuilder()
	b.Label("start")
	b.LI(R1, 10) // one instruction (fits imm16)
	b.Label("loop")
	b.ADDI(R1, R1, -1)
	b.BNEZ(R1, "loop")
	b.J("done")
	b.NOP()
	b.Label("done")
	b.HALT()

	p, err := b.Assemble(0x1000, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr("start") != 0x1000 {
		t.Errorf("start = %#x", p.Addr("start"))
	}
	if p.Addr("loop") != 0x1004 {
		t.Errorf("loop = %#x", p.Addr("loop"))
	}
	// BNEZ at index 2 targets index 1: imm = 1 - 2 - 1 = -2.
	if got := p.Insts[2].Imm; got != -2 {
		t.Errorf("branch imm = %d, want -2", got)
	}
	// J at index 3 targets "done" (index 5): absolute index (0x1000/4)+5.
	if got := p.Insts[3].Imm; got != int32(0x1000/4+5) {
		t.Errorf("jump imm = %d", got)
	}
}

func TestLIExpansions(t *testing.T) {
	cases := []struct {
		v     int32
		insts int
	}{
		{0, 1},
		{32767, 1},
		{-32768, 1},
		{32768, 2},      // LUI+ORI
		{0x70000, 1},    // LUI only (low half zero)
		{-1, 1},         // fits signed imm16 via ADDI
		{0x12345678, 2}, // LUI+ORI
	}
	for _, c := range cases {
		b := NewBuilder()
		b.LI(R1, c.v)
		b.HALT()
		p, err := b.Assemble(0, 0x1000)
		if err != nil {
			t.Fatalf("LI(%d): %v", c.v, err)
		}
		if got := len(p.Insts) - 1; got != c.insts {
			t.Errorf("LI(%d) used %d instructions, want %d", c.v, got, c.insts)
		}
	}
}

func TestLAResolvesDataLabel(t *testing.T) {
	b := NewBuilder()
	b.LA(R4, "table")
	b.HALT()
	b.DataLabel("table")
	b.Word32(1, 2, 3)

	p, err := b.Assemble(0x0, 0x20000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr("table") != 0x20000 {
		t.Fatalf("table = %#x", p.Addr("table"))
	}
	// LA expands to LUI (hi) + ORI (lo).
	if p.Insts[0].Op != isa.LUI || uint16(p.Insts[0].Imm) != 0x2 {
		t.Errorf("LUI = %v", p.Insts[0])
	}
	if p.Insts[1].Op != isa.ORI || uint16(p.Insts[1].Imm) != 0x0 {
		t.Errorf("ORI = %v", p.Insts[1])
	}
}

func TestDataSection(t *testing.T) {
	b := NewBuilder()
	b.HALT()
	b.DataLabel("bytes")
	b.Zero(3)
	b.AlignData(4) // labels mark the current position, so align first
	b.DataLabel("words")
	b.Word32(0xaabbccdd)
	b.AlignData(8)
	b.DataLabel("floats")
	b.Float64(1.5)
	b.WordSym("words")

	p, err := b.Assemble(0, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr("words")%4 != 0 {
		t.Errorf("words misaligned: %#x", p.Addr("words"))
	}
	if p.Addr("floats")%8 != 0 {
		t.Errorf("floats misaligned: %#x", p.Addr("floats"))
	}
	img := mem.NewImage(0x20000)
	p.Load(img, 0)
	if got := img.Read32(p.Addr("words")); got != 0xaabbccdd {
		t.Errorf("words = %#x", got)
	}
	if got := img.ReadF64(p.Addr("floats")); got != 1.5 {
		t.Errorf("floats = %v", got)
	}
	// The WordSym cell holds the address of "words".
	symCell := p.Addr("floats") + 8
	if got := img.Read32(symCell); got != p.Addr("words") {
		t.Errorf("WordSym cell = %#x, want %#x", got, p.Addr("words"))
	}
}

func TestAssembleErrors(t *testing.T) {
	check := func(name string, build func(b *Builder), wantSub string) {
		b := NewBuilder()
		build(b)
		_, err := b.Assemble(0, 0x1000)
		if err == nil {
			t.Errorf("%s: expected error", name)
			return
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}
	check("undefined label", func(b *Builder) { b.J("nowhere") }, "undefined label")
	check("duplicate label", func(b *Builder) { b.Label("x"); b.Label("x") }, "duplicate")
	check("duplicate across sections", func(b *Builder) { b.Label("x"); b.DataLabel("x") }, "duplicate")
	check("imm overflow", func(b *Builder) { b.ADDI(R1, R0, 40000) }, "16-bit")
	check("bad prologue", func(b *Builder) { b.Prologue(12) }, "multiple of 8")
	check("bad align", func(b *Builder) { b.AlignData(3) }, "power of two")

	b := NewBuilder()
	b.NOP()
	if _, err := b.Assemble(2, 0x1000); err == nil {
		t.Error("unaligned text base: expected error")
	}
	b2 := NewBuilder()
	b2.NOP()
	b2.NOP()
	if _, err := b2.Assemble(0, 4); err == nil {
		t.Error("data overlapping text: expected error")
	}
}

func TestEncodedWordsMatchInsts(t *testing.T) {
	b := NewBuilder()
	b.Label("f")
	b.Prologue(16)
	b.ADDI(R8, R0, 5)
	b.JAL("f")
	b.Epilogue(16)
	p, err := b.Assemble(0x4000, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Words {
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("inst %d: %v", i, err)
		}
		if in != p.Insts[i] {
			t.Errorf("inst %d: decoded %v, assembled %v", i, in, p.Insts[i])
		}
	}
}

func TestProgramLoadWithBias(t *testing.T) {
	b := NewBuilder()
	b.LI(R1, 7)
	b.HALT()
	b.DataLabel("d")
	b.Word32(99)
	p := b.MustAssemble(0, 0x100)

	img := mem.NewImage(0x10000)
	const bias = 0x4000
	p.Load(img, bias)
	// Text loaded at bias.
	in, err := isa.Decode(isa.Word(img.Read32(bias)))
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.ADDI || in.Imm != 7 {
		t.Errorf("first inst = %v", in)
	}
	if got := img.Read32(bias + 0x100); got != 99 {
		t.Errorf("data at bias = %d", got)
	}
}

func TestLabelsListing(t *testing.T) {
	b := NewBuilder()
	b.Label("zz")
	b.NOP()
	b.DataLabel("aa")
	p := b.MustAssemble(0, 0x1000)
	labels := p.Labels()
	if len(labels) != 2 || labels[0] != "aa" || labels[1] != "zz" {
		t.Errorf("Labels = %v", labels)
	}
	if !p.HasLabel("zz") || p.HasLabel("qq") {
		t.Error("HasLabel wrong")
	}
}

func TestTextEndDataEnd(t *testing.T) {
	b := NewBuilder()
	b.NOP()
	b.NOP()
	b.Zero(10)
	p := b.MustAssemble(0x1000, 0x2000)
	if p.TextEnd() != 0x1008 {
		t.Errorf("TextEnd = %#x", p.TextEnd())
	}
	if p.DataEnd() != 0x200a {
		t.Errorf("DataEnd = %#x", p.DataEnd())
	}
}

func TestListingAnnotatesLabels(t *testing.T) {
	b := NewBuilder()
	b.Label("start")
	b.LI(R1, 1)
	b.Label("loop")
	b.ADDI(R1, R1, -1)
	b.BNEZ(R1, "loop")
	b.HALT()
	p := b.MustAssemble(0x1000, 0x2000)
	l := p.Listing()
	for _, want := range []string{"start:", "loop:", "00001000:", "halt"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
	// Data labels must not appear in the text listing.
	b2 := NewBuilder()
	b2.Label("t")
	b2.NOP()
	b2.DataLabel("d")
	b2.Word32(1)
	if l2 := b2.MustAssemble(0, 0x1000).Listing(); strings.Contains(l2, "d:") {
		t.Errorf("data label leaked into the text listing:\n%s", l2)
	}
}

func TestSymbols(t *testing.T) {
	b := NewBuilder()
	b.Label("start")
	b.NOP()
	b.Label("body")
	b.Label("body2") // alias at the same address
	b.NOP()
	b.NOP()
	b.HALT()
	b.DataLabel("tbl")
	b.Zero(8)
	b.DataLabel("end")
	b.Word32(7)
	p := b.MustAssemble(0x1000, 0x2000)
	syms := p.Symbols()
	want := []Symbol{
		{Name: "start", Start: 0x1000, End: 0x1004, Text: true},
		{Name: "body", Start: 0x1004, End: 0x1010, Text: true},
		{Name: "body2", Start: 0x1004, End: 0x1010, Text: true},
		{Name: "tbl", Start: 0x2000, End: 0x2008, Text: false},
		{Name: "end", Start: 0x2008, End: 0x200c, Text: false},
	}
	if len(syms) != len(want) {
		t.Fatalf("Symbols() = %v, want %v", syms, want)
	}
	for i, w := range want {
		if syms[i] != w {
			t.Errorf("Symbols()[%d] = %v, want %v", i, syms[i], w)
		}
	}
}

// TestAssembleRefusesBadLayouts: a data section that covers any text
// byte, a section that does not end below 2^32, and a Zero that would
// wrap the data size are errors.
func TestAssembleRefusesBadLayouts(t *testing.T) {
	for _, tc := range []struct {
		name               string
		nops               int
		data               func(b *Builder)
		textBase, dataBase uint32
		want               string
	}{
		{"data overlaps text from below", 2, func(b *Builder) { b.Zero(0x2000) }, 0x1000, 0, "overlaps text"},
		{"data ends inside text", 2, func(b *Builder) { b.Zero(0x1004) }, 0x1000, 0, "overlaps text"},
		{"data wraps past 2^32", 1, func(b *Builder) { b.Zero(0x100) }, 0x1000, 0xFFFFFF80, "below 2^32"},
		{"data ends at 2^32", 1, func(b *Builder) { b.Zero(0x80) }, 0x1000, 0xFFFFFF80, "below 2^32"},
		{"text wraps past 2^32", 2, func(b *Builder) {}, 0xFFFFFFFC, 0x1000, "below 2^32"},
		{"Zero wraps the data size", 1, func(b *Builder) { b.Zero(0xFFFFFFF0); b.Zero(0x10) }, 0x1000, 0x8000, "past 4 GiB"},
		{"WordSym wraps the data size", 1, func(b *Builder) { b.Zero(0xFFFFFFFC); b.WordSym("x") }, 0x1000, 0x8000, "past 4 GiB"},
	} {
		b := NewBuilder()
		for i := 0; i < tc.nops; i++ {
			b.NOP()
		}
		b.DataLabel("x")
		tc.data(b)
		_, err := b.Assemble(tc.textBase, tc.dataBase)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// Touching is not overlapping: data may end where the text starts.
	b := NewBuilder()
	b.NOP()
	b.Zero(0x1000)
	if _, err := b.Assemble(0x1000, 0); err != nil {
		t.Errorf("data [0,0x1000) below text at 0x1000: %v", err)
	}
}

// denseData applies each data directive to a Builder and mirrors it
// into a flat byte slice, the reference the sparse section must load as.
type denseData struct {
	b      *Builder
	bytes  []byte
	labels map[string]int // label → offset
	syms   map[int]string // WordSym offset → label
}

// pad zero-fills the mirror to an n-byte boundary.
func (d *denseData) pad(n int) {
	for len(d.bytes)%n != 0 {
		d.bytes = append(d.bytes, 0)
	}
}

func (d *denseData) align(n int) {
	d.b.AlignData(uint32(n))
	d.pad(n)
}

func (d *denseData) label(name string) {
	d.b.DataLabel(name)
	d.labels[name] = len(d.bytes)
}

func (d *denseData) zero(n int) {
	d.b.Zero(uint32(n))
	d.bytes = append(d.bytes, make([]byte, n)...)
}

func (d *denseData) word32(vs ...uint32) {
	d.b.Word32(vs...)
	d.pad(4)
	for _, v := range vs {
		d.bytes = binary.LittleEndian.AppendUint32(d.bytes, v)
	}
}

func (d *denseData) float64(vs ...float64) {
	d.b.Float64(vs...)
	d.pad(8)
	for _, v := range vs {
		d.bytes = binary.LittleEndian.AppendUint64(d.bytes, math.Float64bits(v))
	}
}

func (d *denseData) wordSym(label string) {
	d.b.WordSym(label)
	d.pad(4)
	d.syms[len(d.bytes)] = label
	d.bytes = append(d.bytes, 0, 0, 0, 0)
}

// image returns the dense section as p should load it, every WordSym
// word patched with its label's address in p, after checking p's data
// labels and DataSize against the mirror.
func (d *denseData) image(t *testing.T, p *Program) []byte {
	t.Helper()
	out := append([]byte(nil), d.bytes...)
	for off, label := range d.syms {
		binary.LittleEndian.PutUint32(out[off:], p.Addr(label))
	}
	for name, off := range d.labels {
		if got, want := p.Addr(name), p.DataBase+uint32(off); got != want {
			t.Errorf("label %s at %#x, want %#x", name, got, want)
		}
	}
	if p.DataSize != uint32(len(d.bytes)) {
		t.Errorf("DataSize = %#x, want %#x", p.DataSize, len(d.bytes))
	}
	return out
}

// buildMixedData interleaves every data directive at random, zero runs
// crossing 16 KiB pages among them, and returns the dense mirror.
func buildMixedData(seed int64) *denseData {
	rng := rand.New(rand.NewSource(seed))
	d := &denseData{b: NewBuilder(), labels: map[string]int{}, syms: map[int]string{}}
	d.b.Label("start")
	d.b.LA(R1, "d0")
	d.b.HALT()
	for i := 0; i < 400; i++ {
		switch rng.Intn(7) {
		case 0:
			d.label(fmt.Sprintf("d%d", len(d.labels)))
		case 1:
			d.align(1 << rng.Intn(5))
		case 2:
			d.zero([]int{0, 1, 3, 64, 70000}[rng.Intn(5)])
		case 3:
			vs := make([]uint32, rng.Intn(4))
			for j := range vs {
				vs[j] = rng.Uint32() >> (32 * rng.Intn(2)) // some words zero
			}
			d.word32(vs...)
		case 4:
			d.float64(rng.Float64(), 0)
		case 5:
			d.wordSym("start")
		case 6:
			if len(d.labels) > 0 {
				d.wordSym(fmt.Sprintf("d%d", rng.Intn(len(d.labels))))
			}
		}
	}
	if len(d.labels) == 0 {
		d.label("d0")
	}
	return d
}

// TestSparseDataMatchesDense: a data section built from every directive
// loads byte for byte like the flat section the test builds beside it,
// text included, and two programs assembled from one builder at
// different bases keep their own WordSym words.
func TestSparseDataMatchesDense(t *testing.T) {
	const size = 4 << 20
	d := buildMixedData(1)
	var progs []*Program
	for _, dataBase := range []uint32{0x10000, 0x20008} {
		p, err := d.b.Assemble(0x1000, dataBase)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		want := make([]byte, size)
		for i, w := range p.Words {
			binary.LittleEndian.PutUint32(want[p.TextBase+4*uint32(i):], uint32(w))
		}
		copy(want[p.DataBase:], d.image(t, p))
		img := mem.NewImage(size)
		p.Load(img, 0)
		for a := range want {
			if got := img.Read8(uint32(a)); got != want[a] {
				t.Fatalf("data base %#x: byte %#x = %#x, want %#x", p.DataBase, a, got, want[a])
			}
		}
	}
}

// TestLoadDataAtClearsGaps: loading over memory written beforehand
// leaves every uninitialized byte zero and nothing outside the section
// changed.
func TestLoadDataAtClearsGaps(t *testing.T) {
	const size, base = 4 << 20, 0x30000
	d := buildMixedData(2)
	p, err := d.b.Assemble(0x1000, base)
	if err != nil {
		t.Fatal(err)
	}
	img := mem.NewImage(size)
	junk := bytes.Repeat([]byte{0xa5}, size)
	img.WriteBytes(0, junk)
	p.LoadDataAt(img, base)
	want := junk
	copy(want[base:], d.image(t, p))
	for a := range want {
		if got := img.Read8(uint32(a)); got != want[a] {
			t.Fatalf("byte %#x = %#x, want %#x", a, got, want[a])
		}
	}
}

// TestZeroCostsNothing: a 16 MiB Zero takes no memory to build, assemble
// or load. Every image page is 16 KiB, so staying under 16 KiB in all
// (the builder's own tables included) also shows that no page of the
// range was allocated. The text's page is made present beforehand.
func TestZeroCostsNothing(t *testing.T) {
	img := mem.NewImage(32 << 20)
	img.Write8(0, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBuilder()
	b.Label("start")
	b.HALT()
	b.DataLabel("big")
	b.Zero(16 << 20)
	b.MustAssemble(0x1000, 0x10000).Load(img, 0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Errorf("building, assembling and loading a 16 MiB Zero allocated %d bytes, want under 16 KiB", got)
	}
	runtime.KeepAlive(img)
}
