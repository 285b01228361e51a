package cpu

import (
	"math/rand"
	"testing"
)

// TestMemoryLastPageCache: accesses alternating between two pages, and
// words straddling a page boundary, read back what a flat byte model
// holds, whichever page the last-page cache points at.
func TestMemoryLastPageCache(t *testing.T) {
	m := NewMemory()
	model := map[uint32]byte{}
	load32 := func(addr uint32) uint32 {
		return uint32(model[addr]) | uint32(model[addr+1])<<8 | uint32(model[addr+2])<<16 | uint32(model[addr+3])<<24
	}
	pages := [2]uint32{0x1000, 0x7000}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		// Alternate pages; every eighth access straddles the end of one.
		addr := pages[i&1] + uint32(rng.Intn(pageSize-3))
		if i%8 == 7 {
			addr = pages[i&1] + pageSize - 1 - uint32(rng.Intn(3))
		}
		switch rng.Intn(4) {
		case 0:
			v := rng.Uint32()
			m.Store32(addr, v)
			for k := uint32(0); k < 4; k++ {
				model[addr+k] = byte(v >> (8 * k))
			}
		case 1:
			v := byte(rng.Intn(256))
			m.StoreByte(addr, v)
			model[addr] = v
		case 2:
			if got, want := m.Load32(addr), load32(addr); got != want {
				t.Fatalf("access %d: Load32(%#x) = %#x, want %#x", i, addr, got, want)
			}
		case 3:
			if got, want := m.LoadByte(addr), model[addr]; got != want {
				t.Fatalf("access %d: LoadByte(%#x) = %#x, want %#x", i, addr, got, want)
			}
		}
	}
	for addr := range model {
		if got, want := m.LoadByte(addr), model[addr]; got != want {
			t.Fatalf("LoadByte(%#x) = %#x, want %#x", addr, got, want)
		}
	}
}

// TestMemoryUnmappedLoadCachesNothing: a load from an unmapped page reads
// zero without mapping or caching the page, so a later store still
// creates it and a load then reads the stored word back.
func TestMemoryUnmappedLoadCachesNothing(t *testing.T) {
	m := NewMemory()
	m.Store32(0x1000, 0xCAFEF00D)
	cached := m.last
	const addr = 0x9004
	if v := m.Load32(addr); v != 0 {
		t.Fatalf("Load32 of unmapped page = %#x, want 0", v)
	}
	if m.last != cached {
		t.Error("load of an unmapped page changed the cached page")
	}
	if _, ok := m.pages[addr>>pageShift]; ok {
		t.Error("load of an unmapped page mapped it")
	}
	m.Store32(addr, 0x12345678)
	if v := m.Load32(addr); v != 0x12345678 {
		t.Errorf("Load32 after Store32 = %#x, want 0x12345678", v)
	}
	if v := m.Load32(0x1000); v != 0xCAFEF00D {
		t.Errorf("first page reads %#x after switching pages, want 0xcafef00d", v)
	}
}
