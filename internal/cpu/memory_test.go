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

// mapMemory is the reference for Memory's page caches: the same paged
// layout reached through the map alone, a word as four byte accesses.
type mapMemory map[uint32]*page

func (m mapMemory) loadByte(addr uint32) byte {
	if p := m[addr>>pageShift]; p != nil {
		return p[addr&pageMask]
	}
	return 0
}

func (m mapMemory) storeByte(addr uint32, v byte) {
	p := m[addr>>pageShift]
	if p == nil {
		p = new(page)
		m[addr>>pageShift] = p
	}
	p[addr&pageMask] = v
}

func (m mapMemory) load32(addr uint32) uint32 {
	var v uint32
	for k := uint32(0); k < 4; k++ {
		v |= uint32(m.loadByte(addr+k)) << (8 * k)
	}
	return v
}

func (m mapMemory) store32(addr, v uint32) {
	for k := uint32(0); k < 4; k++ {
		m.storeByte(addr+k, byte(v>>(8*k)))
	}
}

// TestMemoryPageCacheMatchesReference drives Memory and the map-only
// reference with one random mix of byte and word loads and stores over
// more pages than the direct-mapped cache holds, many of them sharing a
// slot: pages at both ends of the address space (words there wrap past
// 0xffffffff), words straddling page ends, and reads of pages never
// stored to. Every load must agree, and loads must map no page.
func TestMemoryPageCacheMatchesReference(t *testing.T) {
	m, ref := NewMemory(), mapMemory{}
	var pns []uint32
	for i := uint32(0); i < 3*recentPages; i++ {
		pns = append(pns, i, 0xfffff-i, 0x400+i*recentPages) // the last share one slot
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		// Loads range over every page; stores over a third of them, so
		// many loads read unmapped pages.
		pn := pns[rng.Intn(len(pns))]
		addr := pn<<pageShift | uint32(rng.Intn(pageSize))
		if rng.Intn(4) == 0 {
			addr = pn<<pageShift | uint32(pageSize-1-rng.Intn(4)) // straddles the next page
		}
		store := pn%3 == 0 && rng.Intn(2) == 0
		switch {
		case store && rng.Intn(2) == 0:
			v := rng.Uint32()
			m.Store32(addr, v)
			ref.store32(addr, v)
		case store:
			v := byte(rng.Intn(256))
			m.StoreByte(addr, v)
			ref.storeByte(addr, v)
		case rng.Intn(2) == 0:
			if got, want := m.Load32(addr), ref.load32(addr); got != want {
				t.Fatalf("access %d: Load32(%#x) = %#x, want %#x", i, addr, got, want)
			}
		default:
			if got, want := m.LoadByte(addr), ref.loadByte(addr); got != want {
				t.Fatalf("access %d: LoadByte(%#x) = %#x, want %#x", i, addr, got, want)
			}
		}
		if len(m.pages) != len(ref) {
			t.Fatalf("access %d (%#x): %d pages mapped, reference %d", i, addr, len(m.pages), len(ref))
		}
	}
	for pn, p := range ref {
		if *m.pages[pn] != *p {
			t.Errorf("page %#x differs from the reference", pn)
		}
	}
}
