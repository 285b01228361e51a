// Package cpu implements a functional IA-32 interpreter over sparse paged
// memory. It executes workload programs instruction by instruction and
// captures trace records (register deltas, flags, memory transactions) —
// the reproduction's stand-in for the paper's hardware trace capture.
//
// The interpreter is written independently of the micro-op evaluator
// (internal/uop) against the same documented semantics spec (DESIGN.md);
// the differential tests in internal/verify compare the two.
package cpu

import "encoding/binary"

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// recentPages is the size of Memory's direct-mapped page cache; a power
// of two, so a page number's low bits pick its slot.
const recentPages = 64

// pageRef is one slot of the direct-mapped page cache: a mapped page
// and its page number, or a nil page for an empty slot.
type pageRef struct {
	p  *page
	pn uint32
}

// Memory is a sparse, byte-addressable 32-bit memory. It is owned by one
// CPU and is not safe for concurrent use.
type Memory struct {
	pages map[uint32]*page

	// last and lastPN cache the most recently used mapped page, so runs
	// of accesses to one page skip the map; recent holds the pages used
	// lately, tagged by page number, so alternating between code, stack
	// and data pages skips it too. The map stays the owner (pages are
	// never unmapped, so a cached page never goes stale), and a nil page
	// is never cached: an unmapped page must still be created by its
	// first store.
	last   *page
	lastPN uint32
	recent [recentPages]pageRef
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*page)}
}

func (m *Memory) pageFor(addr uint32, create bool) *page {
	pn := addr >> pageShift
	if m.last != nil && pn == m.lastPN {
		return m.last
	}
	r := &m.recent[pn&(recentPages-1)]
	if r.p == nil || r.pn != pn {
		p := m.pages[pn]
		if p == nil {
			if !create {
				return nil
			}
			p = new(page)
			m.pages[pn] = p
		}
		r.p, r.pn = p, pn
	}
	m.last, m.lastPN = r.p, pn
	return r.p
}

// LoadByte returns the byte at addr (zero if never written).
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte writes the byte at addr.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.pageFor(addr, true)[addr&pageMask] = v
}

// Load32 returns the little-endian word at addr; unaligned and
// page-crossing accesses are supported.
func (m *Memory) Load32(addr uint32) uint32 {
	if addr&pageMask <= pageSize-4 {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		off := addr & pageMask
		return binary.LittleEndian.Uint32(p[off : off+4])
	}
	var b [4]byte
	for i := range b {
		b[i] = m.LoadByte(addr + uint32(i))
	}
	return binary.LittleEndian.Uint32(b[:])
}

// Store32 writes the little-endian word at addr.
func (m *Memory) Store32(addr uint32, v uint32) {
	if addr&pageMask <= pageSize-4 {
		p := m.pageFor(addr, true)
		off := addr & pageMask
		binary.LittleEndian.PutUint32(p[off:off+4], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	for i := range b {
		m.StoreByte(addr+uint32(i), b[i])
	}
}

// WriteBytes copies a byte slice into memory at addr (used to load code
// images).
func (m *Memory) WriteBytes(addr uint32, data []byte) {
	for len(data) > 0 {
		n := copy(m.pageFor(addr, true)[addr&pageMask:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.LoadByte(addr + uint32(i))
	}
	return out
}
