package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestImageReadWriteWidths(t *testing.T) {
	m := NewImage(64)
	m.Write8(1, 0xab)
	if got := m.Read8(1); got != 0xab {
		t.Errorf("Read8 = %#x, want 0xab", got)
	}
	m.Write32(4, 0xdeadbeef)
	if got := m.Read32(4); got != 0xdeadbeef {
		t.Errorf("Read32 = %#x, want 0xdeadbeef", got)
	}
	m.Write64(8, 0x0123456789abcdef)
	if got := m.Read64(8); got != 0x0123456789abcdef {
		t.Errorf("Read64 = %#x", got)
	}
	m.WriteF64(16, 3.25)
	if got := m.ReadF64(16); got != 3.25 {
		t.Errorf("ReadF64 = %v, want 3.25", got)
	}
	// Little-endian byte order.
	m.Write32(20, 0x11223344)
	if m.Read8(20) != 0x44 || m.Read8(23) != 0x11 {
		t.Error("Write32 not little-endian")
	}
}

// TestImagePanicsOnBadAccess: out-of-range and misaligned accesses
// panic, with the messages the flat image had.
func TestImagePanicsOnBadAccess(t *testing.T) {
	m := NewImage(16)
	for _, tc := range []struct {
		f    func()
		want string
	}{
		{func() { m.Read8(16) }, "mem: read8 at 0x10 (size 1) out of range (memory 16 bytes)"},
		{func() { m.Write8(16, 1) }, "mem: write8 at 0x10 (size 1) out of range (memory 16 bytes)"},
		{func() { m.Read32(16) }, "mem: read32 at 0x10 (size 4) out of range (memory 16 bytes)"},
		{func() { m.Write32(16, 0) }, "mem: write32 at 0x10 (size 4) out of range (memory 16 bytes)"},
		{func() { m.Read64(12) }, "mem: read64 at 0xc (size 8) out of range (memory 16 bytes)"},
		{func() { m.Write64(16, 0) }, "mem: write64 at 0x10 (size 8) out of range (memory 16 bytes)"},
		{func() { m.ReadF64(0xfffffff8) }, "mem: read64 at 0xfffffff8 (size 8) out of range (memory 16 bytes)"},
		{func() { m.Read32(2) }, "mem: misaligned read32 at 0x2 (size 4)"},
		{func() { m.Write32(6, 1) }, "mem: misaligned write32 at 0x6 (size 4)"},
		{func() { m.Read64(4) }, "mem: misaligned read64 at 0x4 (size 8)"},
		{func() { m.WriteF64(12, 1) }, "mem: write64 at 0xc (size 8) out of range (memory 16 bytes)"},
		{func() { m.WriteF64(4, 1) }, "mem: misaligned write64 at 0x4 (size 8)"},
		{func() { m.WriteBytes(10, make([]byte, 7)) }, "mem: write at 0xa (size 7) out of range (memory 16 bytes)"},
		{func() { m.Clear(12, 5) }, "mem: clear at 0xc (size 5) out of range (memory 16 bytes)"},
	} {
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			tc.f()
			return
		}()
		if got != tc.want {
			t.Errorf("panic %q, want %q", got, tc.want)
		}
	}
}

func TestIdentitySpace(t *testing.T) {
	s := Identity{Limit: 0x1000}
	if p, ok := s.Translate(0); !ok || p != 0 {
		t.Errorf("Translate(0) = %#x,%v", p, ok)
	}
	if p, ok := s.Translate(0xfff); !ok || p != 0xfff {
		t.Errorf("Translate(0xfff) = %#x,%v", p, ok)
	}
	if _, ok := s.Translate(0x1000); ok {
		t.Error("Translate(limit) should fail")
	}
}

func TestProcSpace(t *testing.T) {
	s := Proc{
		TextPhys: 0x50000, TextLimit: 0x2000,
		DataPhys: 0x10000, UserLimit: 0x4000,
		KernelStart: 0xf0000, KernelLimit: 0xf8000,
	}
	if p, ok := s.Translate(0x100); !ok || p != 0x50100 {
		t.Errorf("text Translate = %#x,%v", p, ok)
	}
	if p, ok := s.Translate(0x2100); !ok || p != 0x10100 {
		t.Errorf("data Translate = %#x,%v", p, ok)
	}
	if _, ok := s.Translate(0x4000); ok {
		t.Error("above user limit should fail")
	}
	if p, ok := s.Translate(0xf0010); !ok || p != 0xf0010 {
		t.Errorf("kernel Translate = %#x,%v", p, ok)
	}
	if _, ok := s.Translate(0xf8000); ok {
		t.Error("above kernel limit should fail")
	}
	if _, ok := s.Translate(0x80000); ok {
		t.Error("hole between segments should fail")
	}
}

func TestQuickProcMappingIsPiecewiseLinear(t *testing.T) {
	s := Proc{
		TextPhys: 0x80000, TextLimit: 0x4000,
		DataPhys: 0x40000, UserLimit: 0x10000,
		KernelStart: 0x100000, KernelLimit: 0x110000,
	}
	f := func(v uint32) bool {
		v %= s.UserLimit
		p, ok := s.Translate(v)
		if !ok {
			return false
		}
		if v < s.TextLimit {
			return p == s.TextPhys+v
		}
		return p == s.DataPhys+(v-s.TextLimit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickImage32RoundTrip(t *testing.T) {
	m := NewImage(1 << 12)
	f := func(addr, v uint32) bool {
		addr = (addr % (m.Size() / 4)) * 4
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestImageMatchesFlatReference drives the paged image and a flat byte
// slice with the same random operation stream (aligned 1-, 4- and
// 8-byte reads and writes, bulk writes, many of them zeros, and clears,
// at page edges and at the last word of memory) and requires equal reads,
// equal final contents, and storage only for pages that were given a
// non-zero byte.
func TestImageMatchesFlatReference(t *testing.T) {
	for _, size := range []uint32{4 * pageSize, 3*pageSize + 24, 40} {
		m := NewImage(size)
		ref := make([]byte, size)
		written := make([]bool, len(m.pages)) // a non-zero byte reached the page
		rng := rand.New(rand.NewSource(int64(size)))
		addr := func(n uint32) uint32 {
			a := rng.Intn(int(size))
			switch rng.Intn(4) {
			case 0: // around a page edge
				a = rng.Intn(len(m.pages)+1)*pageSize + rng.Intn(33) - 16
			case 1: // the last word of memory
				a = int(size)
			}
			a = max(0, min(a, int(size-n)))
			return uint32(a) &^ (n - 1)
		}
		value := func() uint64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return rng.Uint64()
		}
		mark := func(a uint32, b []byte) {
			for i, x := range b {
				if x != 0 {
					written[(a+uint32(i))>>pageShift] = true
				}
			}
		}
		for op := 0; op < 20000; op++ {
			switch rng.Intn(8) {
			case 0:
				a := addr(1)
				if got, want := m.Read8(a), ref[a]; got != want {
					t.Fatalf("size %d op %d: Read8(%#x) = %#x, want %#x", size, op, a, got, want)
				}
			case 1:
				a := addr(4)
				if got, want := m.Read32(a), binary.LittleEndian.Uint32(ref[a:]); got != want {
					t.Fatalf("size %d op %d: Read32(%#x) = %#x, want %#x", size, op, a, got, want)
				}
			case 2:
				a := addr(8)
				if got, want := m.Read64(a), binary.LittleEndian.Uint64(ref[a:]); got != want {
					t.Fatalf("size %d op %d: Read64(%#x) = %#x, want %#x", size, op, a, got, want)
				}
			case 3:
				a, v := addr(1), uint8(value())
				m.Write8(a, v)
				ref[a] = v
				mark(a, ref[a:a+1])
			case 4:
				a, v := addr(4), uint32(value())
				m.Write32(a, v)
				binary.LittleEndian.PutUint32(ref[a:], v)
				mark(a, ref[a:a+4])
			case 5:
				a, v := addr(8), value()
				m.Write64(a, v)
				binary.LittleEndian.PutUint64(ref[a:], v)
				mark(a, ref[a:a+8])
			case 6:
				a := addr(1)
				b := make([]byte, rng.Intn(int(min(size-a, 3*pageSize))+1))
				if rng.Intn(2) == 0 { // a zero run with a few non-zero bytes
					for i := rng.Intn(3); i > 0 && len(b) > 0; i-- {
						b[rng.Intn(len(b))] = byte(1 + rng.Intn(255))
					}
				} else {
					rng.Read(b)
				}
				m.WriteBytes(a, b)
				copy(ref[a:], b)
				mark(a, b)
			case 7:
				a := addr(1)
				n := uint32(rng.Intn(int(min(size-a, 3*pageSize)) + 1))
				m.Clear(a, n)
				clear(ref[a : a+n])
			}
		}
		for a := range ref {
			if got := m.Read8(uint32(a)); got != ref[a] {
				t.Fatalf("size %d: final byte %#x = %#x, want %#x", size, a, got, ref[a])
			}
		}
		for i, p := range m.pages {
			if present := p != &zeroPage; present != written[i] {
				t.Errorf("size %d: page %d present = %v, but a non-zero byte written = %v", size, i, present, written[i])
			}
		}
	}
}
