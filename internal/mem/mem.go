// Package mem provides the simulated physical memory image and the
// address-space translation used by guest contexts.
//
// The memory image is purely functional: it holds the bytes the guest
// programs operate on. All timing (caches, buses, contention) is modelled
// separately by the memory-system packages, which see only addresses.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Image is a simulated physical memory, held as a table of fixed-size
// pages that are allocated on first write. A page nothing has written
// reads as zero from one shared zero page, so creating an image costs a
// pointer per page and a run's memory grows with what the guest touches,
// not with the image's size.
//
// Accessors panic on out-of-range or misaligned addresses: guest
// programs are part of the simulator's own test corpus, so such an
// access is a bug in the simulator or a workload, not a recoverable
// guest error.
type Image struct {
	pages []*page
	size  uint32
}

const (
	pageShift = 16 // 64 KiB pages: 512 table entries for the 32 MiB image
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// zeroPage backs every page that has not been written. It is never
// written itself: a writer that finds it allocates the page first, or
// returns if what it writes is zero.
var zeroPage page

// NewImage returns a zeroed physical memory of the given size in bytes.
// It allocates only the page table.
func NewImage(size uint32) *Image {
	pages := make([]*page, (uint64(size)+pageMask)>>pageShift)
	for i := range pages {
		pages[i] = &zeroPage
	}
	return &Image{pages: pages, size: size}
}

// Size returns the physical memory size in bytes.
func (m *Image) Size() uint32 { return m.size }

// Snapshot is a copy of a memory image's contents (for checkpointing):
// one entry per page, nil for a page that reads as all zeros.
type Snapshot struct {
	Size  uint32
	Pages [][]byte
}

// Snapshot copies the pages that hold a non-zero byte.
func (m *Image) Snapshot() Snapshot {
	s := Snapshot{Size: m.size, Pages: make([][]byte, len(m.pages))}
	for i, p := range m.pages {
		if p != &zeroPage && *p != zeroPage {
			s.Pages[i] = bytes.Clone(p[:])
		}
	}
	return s
}

// RestoreSnapshot replaces the memory contents with a snapshot of an
// image of the same size. Pages the snapshot has as zero are dropped.
func (m *Image) RestoreSnapshot(s Snapshot) error {
	if s.Size != m.size || len(s.Pages) != len(m.pages) {
		return fmt.Errorf("mem: snapshot size %d does not match memory size %d", s.Size, m.size)
	}
	for i, b := range s.Pages {
		if len(b) != 0 && len(b) != pageSize {
			return fmt.Errorf("mem: snapshot page %d has %d bytes, want %d", i, len(b), pageSize)
		}
	}
	for i, b := range s.Pages {
		switch {
		case len(b) == 0:
			m.pages[i] = &zeroPage
		case m.pages[i] == &zeroPage:
			m.pages[i] = (*page)(bytes.Clone(b))
		default:
			copy(m.pages[i][:], b)
		}
	}
	return nil
}

// WriteBytes copies b into memory starting at addr, a page at a time.
// A stretch of zeros that falls on a page nothing has written is
// skipped: the page already reads as zero and stays unallocated.
func (m *Image) WriteBytes(addr uint32, b []byte) {
	if uint64(addr)+uint64(len(b)) > uint64(m.size) {
		panic(fault{"write", addr, uint32(len(b)), m.size})
	}
	for len(b) > 0 {
		off := addr & pageMask
		chunk := b[:min(len(b), pageSize-int(off))]
		i := addr >> pageShift
		p := m.pages[i]
		if p == &zeroPage && !bytes.Equal(chunk, zeroPage[:len(chunk)]) {
			p = new(page)
			m.pages[i] = p
		}
		if p != &zeroPage {
			copy(p[off:], chunk)
		}
		addr += uint32(len(chunk))
		b = b[len(chunk):]
	}
}

// fault is the panic value of an access that is out of range or
// misaligned. A value rather than a formatted string, so the accessors
// that raise it stay small enough to inline; the message is formatted
// only when something prints it.
type fault struct {
	what            string
	addr, n, memory uint32
}

func (f fault) Error() string {
	if uint64(f.addr)+uint64(f.n) > uint64(f.memory) {
		return fmt.Sprintf("mem: %s at %#x (size %d) out of range (memory %d bytes)", f.what, f.addr, f.n, f.memory)
	}
	return fmt.Sprintf("mem: misaligned %s at %#x (size %d)", f.what, f.addr, f.n)
}

// Read8 reads one byte.
func (m *Image) Read8(addr uint32) uint8 {
	if addr >= m.size {
		panic(fault{"read8", addr, 1, m.size})
	}
	return m.pages[addr>>pageShift][addr&pageMask]
}

// Write8 writes one byte.
func (m *Image) Write8(addr uint32, v uint8) {
	if addr >= m.size {
		panic(fault{"write8", addr, 1, m.size})
	}
	i := addr >> pageShift
	p := m.pages[i]
	if p == &zeroPage {
		if v == 0 {
			return
		}
		p = new(page) // first write to this page
		m.pages[i] = p
	}
	p[addr&pageMask] = v
}

// Read32 reads a 32-bit little-endian word. addr must be 4-byte aligned.
func (m *Image) Read32(addr uint32) uint32 {
	if uint64(addr)+4 > uint64(m.size) || addr&3 != 0 {
		panic(fault{"read32", addr, 4, m.size})
	}
	return binary.LittleEndian.Uint32(m.pages[addr>>pageShift][addr&pageMask:])
}

// Write32 writes a 32-bit little-endian word. addr must be 4-byte aligned.
func (m *Image) Write32(addr uint32, v uint32) {
	if uint64(addr)+4 > uint64(m.size) || addr&3 != 0 {
		panic(fault{"write32", addr, 4, m.size})
	}
	i := addr >> pageShift
	p := m.pages[i]
	if p == &zeroPage {
		if v == 0 {
			return
		}
		p = new(page) // first write to this page
		m.pages[i] = p
	}
	binary.LittleEndian.PutUint32(p[addr&pageMask:], v)
}

// Read64 reads a 64-bit little-endian word. addr must be 8-byte aligned.
func (m *Image) Read64(addr uint32) uint64 {
	if uint64(addr)+8 > uint64(m.size) || addr&7 != 0 {
		panic(fault{"read64", addr, 8, m.size})
	}
	return binary.LittleEndian.Uint64(m.pages[addr>>pageShift][addr&pageMask:])
}

// Write64 writes a 64-bit little-endian word. addr must be 8-byte aligned.
func (m *Image) Write64(addr uint32, v uint64) {
	if uint64(addr)+8 > uint64(m.size) || addr&7 != 0 {
		panic(fault{"write64", addr, 8, m.size})
	}
	i := addr >> pageShift
	p := m.pages[i]
	if p == &zeroPage {
		if v == 0 {
			return
		}
		p = new(page) // first write to this page
		m.pages[i] = p
	}
	binary.LittleEndian.PutUint64(p[addr&pageMask:], v)
}

// ReadF64 reads a float64.
func (m *Image) ReadF64(addr uint32) float64 {
	return math.Float64frombits(m.Read64(addr))
}

// WriteF64 writes a float64.
func (m *Image) WriteF64(addr uint32, v float64) {
	m.Write64(addr, math.Float64bits(v))
}

// Space translates a guest virtual address to a physical address.
// Implementations must be deterministic and side-effect free.
type Space interface {
	// Translate maps a virtual address to physical. ok is false if the
	// address is unmapped; the CPU models treat that as a fatal guest
	// fault.
	Translate(vaddr uint32) (paddr uint32, ok bool)
}

// Identity maps virtual addresses 1:1 onto physical addresses below
// Limit. It is the space used by the parallel applications, which share
// one address space across all CPUs as threads of one process.
type Identity struct {
	Limit uint32
}

// Translate implements Space.
func (s Identity) Translate(v uint32) (uint32, bool) {
	if v >= s.Limit {
		return 0, false
	}
	return v, true
}

// Proc is the address space of one process in the multiprogramming
// workload: a text segment shared by every process running the same
// binary (as an OS shares a program's text pages), a private data/stack
// segment relocated by base-and-bound, and the shared kernel segment
// mapped identically for every process (the kernel is mapped into every
// address space, as in IRIX).
//
// Virtual layout:
//
//	[0, TextLimit)              -> [TextPhys, TextPhys+TextLimit)      (shared)
//	[TextLimit, UserLimit)      -> [DataPhys, ...)                      (private)
//	[KernelStart, KernelLimit)  -> identity                             (shared)
type Proc struct {
	TextPhys    uint32
	TextLimit   uint32
	DataPhys    uint32
	UserLimit   uint32
	KernelStart uint32
	KernelLimit uint32
}

// Translate implements Space.
func (s Proc) Translate(v uint32) (uint32, bool) {
	if v < s.TextLimit {
		return s.TextPhys + v, true
	}
	if v < s.UserLimit {
		return s.DataPhys + (v - s.TextLimit), true
	}
	if v >= s.KernelStart && v < s.KernelLimit {
		return v, true
	}
	return 0, false
}
