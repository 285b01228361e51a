// Package predict implements the branch prediction structures of the
// paper's Table 2 configuration: an 18-bit gshare conditional predictor,
// a branch target buffer, and a return address stack.
package predict

import "sync"

// Predictor tables outlive the engine that trained them: PutGshare and
// PutBTB clear a table and pool it, and the next NewGshare or NewBTB of
// the same size takes it instead of allocating and zeroing a fresh one
// (256 KB of counters at the paper's 18 bits). A pooled table of
// another size is dropped for a fresh one.
var gsharePool, btbPool sync.Pool

// Gshare is a global-history XOR-indexed table of 2-bit saturating
// counters.
type Gshare struct {
	bits    uint
	mask    uint32
	history uint32
	table   []uint8
}

// NewGshare returns a predictor with 2^bits counters.
func NewGshare(bits uint) *Gshare {
	if g, _ := gsharePool.Get().(*Gshare); g != nil && g.bits == bits {
		return g
	}
	return &Gshare{
		bits:  bits,
		mask:  (1 << bits) - 1,
		table: make([]uint8, 1<<bits),
	}
}

// PutGshare clears g and pools it for the next NewGshare of its size.
// The caller must not use g again.
func PutGshare(g *Gshare) {
	clear(g.table)
	g.history = 0
	gsharePool.Put(g)
}

func (g *Gshare) index(pc uint32) uint32 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint32) bool {
	return g.table[g.index(pc)] >= 2
}

// Update trains the counter and shifts the outcome into the global
// history.
func (g *Gshare) Update(pc uint32, taken bool) {
	i := g.index(pc)
	c := g.table[i]
	if taken {
		if c < 3 {
			g.table[i] = c + 1
		}
	} else if c > 0 {
		g.table[i] = c - 1
	}
	g.history = (g.history << 1) & g.mask
	if taken {
		g.history |= 1
	}
}

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	mask    uint32
	tags    []uint32
	targets []uint32
	valid   []bool
}

// NewBTB returns a direct-mapped BTB with the given number of entries
// (rounded up to a power of two).
func NewBTB(entries int) *BTB {
	n := 1
	for n < entries {
		n <<= 1
	}
	if b, _ := btbPool.Get().(*BTB); b != nil && len(b.valid) == n {
		return b
	}
	return &BTB{
		mask:    uint32(n - 1),
		tags:    make([]uint32, n),
		targets: make([]uint32, n),
		valid:   make([]bool, n),
	}
}

// PutBTB clears b and pools it for the next NewBTB of its size. Only
// the valid bits are cleared: an invalid entry's tag and target are
// never read. The caller must not use b again.
func PutBTB(b *BTB) {
	clear(b.valid)
	btbPool.Put(b)
}

// Lookup returns the predicted target for the branch at pc, if present.
func (b *BTB) Lookup(pc uint32) (uint32, bool) {
	i := (pc >> 2) & b.mask
	if b.valid[i] && b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Update records the branch's actual target.
func (b *BTB) Update(pc, target uint32) {
	i := (pc >> 2) & b.mask
	b.tags[i], b.targets[i], b.valid[i] = pc, target, true
}

// RAS is a fixed-depth return address stack with wraparound.
type RAS struct {
	stack []uint32
	top   int
	depth int
}

// NewRAS returns a return address stack of the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint32, depth), depth: depth}
}

// Push records a call's return address.
func (r *RAS) Push(addr uint32) {
	r.top = (r.top + 1) % r.depth
	r.stack[r.top] = addr
}

// Pop predicts a return target.
func (r *RAS) Pop() uint32 {
	v := r.stack[r.top]
	r.top = (r.top - 1 + r.depth) % r.depth
	return v
}
