package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the reference model for Cache: per set, its resident lines
// in recency order (front = most recent), at most ways of them.
type refCache struct {
	lineShift uint
	sets      [][]uint32
	ways      int

	accesses, misses uint64
}

func newRefCache(sizeBytes, lineBytes, ways int) *refCache {
	sets := sizeBytes / lineBytes / ways
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	r := &refCache{sets: make([][]uint32, sets), ways: ways}
	for lineBytes > 1 {
		lineBytes >>= 1
		r.lineShift++
	}
	return r
}

func (r *refCache) access(addr uint32) bool {
	r.accesses++
	line := addr >> r.lineShift
	s := int(line) & (len(r.sets) - 1)
	lines := r.sets[s]
	for i, l := range lines {
		if l == line {
			copy(lines[1:i+1], lines[:i])
			lines[0] = line
			return true
		}
	}
	r.misses++
	if len(lines) < r.ways {
		lines = append(lines, 0)
	}
	copy(lines[1:], lines)
	lines[0] = line
	r.sets[s] = lines
	return false
}

func (r *refCache) contains(addr uint32) bool {
	line := addr >> r.lineShift
	for _, l := range r.sets[int(line)&(len(r.sets)-1)] {
		if l == line {
			return true
		}
	}
	return false
}

// TestCacheMatchesReference drives Cache and the true-LRU reference with
// the same address streams over 1- to 8-way geometries, power-of-two and
// not, and requires the same hit/miss sequence and counters.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []struct{ size, line, ways int }{
		{256, 64, 1},
		{8 << 10, 64, 2},  // ICache
		{32 << 10, 64, 4}, // L1D
		{512 << 10, 64, 8},
		{48 << 10, 64, 4}, // 192 sets, rounds to 128
		{3 << 10, 64, 2},  // 24 sets, rounds to 16
		{1000, 32, 8},     // 3 sets, rounds to 2
		{96, 32, 3},       // one 3-way set
		{512, 2, 1},
	}
	for _, g := range geoms {
		t.Run(fmt.Sprintf("%dB_%dB_%dw", g.size, g.line, g.ways), func(t *testing.T) {
			c, r := New(g.size, g.line, g.ways), newRefCache(g.size, g.line, g.ways)
			rng := rand.New(rand.NewSource(int64(g.size*31 + g.ways)))
			// Addresses over about four times the capacity, half of them
			// near a recent one, so hits, conflict misses and LRU
			// reordering all occur; the top of the address space is
			// mixed in for tag wrap-around.
			span := uint32(4 * g.size)
			var last uint32
			hits := 0
			for i := 0; i < 50_000; i++ {
				var addr uint32
				switch rng.Intn(8) {
				case 0, 1, 2, 3:
					addr = last + uint32(rng.Intn(4*g.line))
				case 4:
					addr = ^uint32(0) - uint32(rng.Intn(4*g.line))
				default:
					addr = uint32(rng.Int63n(int64(span)))
				}
				last = addr
				got, want := c.Access(addr), r.access(addr)
				if got != want {
					t.Fatalf("access %d (%#x): hit=%v, reference %v", i, addr, got, want)
				}
				if got {
					hits++
				}
				probe := uint32(rng.Int63n(int64(span)))
				if got, want := c.Contains(probe), r.contains(probe); got != want {
					t.Fatalf("after access %d: Contains(%#x)=%v, reference %v", i, probe, got, want)
				}
			}
			if c.Accesses != r.accesses || c.Misses != r.misses {
				t.Errorf("accesses/misses %d/%d, reference %d/%d", c.Accesses, c.Misses, r.accesses, r.misses)
			}
			if hits == 0 || c.Misses == 0 {
				t.Errorf("stream exercised %d hits and %d misses; want both", hits, c.Misses)
			}
		})
	}
}

// refUOpCache is the map-plus-container/list UOpCache the flat one
// replaced, kept verbatim as the reference model.
type refUOpCache[T any] struct {
	capacity int
	used     int
	entries  map[uint32]*list.Element
	lru      *list.List // front = most recent

	Insertions uint64
	Evictions  uint64
	Hits       uint64
	Lookups    uint64

	OnInsert func(pc uint32, size int)
	OnEvict  func(pc uint32, size int)
	Recycle  func(value T)
}

type refEntry[T any] struct {
	pc    uint32
	size  int
	value T
}

func newRefUOpCache[T any](capacity int) *refUOpCache[T] {
	return &refUOpCache[T]{
		capacity: capacity,
		entries:  make(map[uint32]*list.Element),
		lru:      list.New(),
	}
}

func (c *refUOpCache[T]) Lookup(pc uint32) (T, bool) {
	c.Lookups++
	el, ok := c.entries[pc]
	if !ok {
		var zero T
		return zero, false
	}
	c.Hits++
	c.lru.MoveToFront(el)
	return el.Value.(*refEntry[T]).value, true
}

func (c *refUOpCache[T]) Contains(pc uint32) bool {
	_, ok := c.entries[pc]
	return ok
}

func (c *refUOpCache[T]) Insert(pc uint32, size int, value T) bool {
	if size > c.capacity {
		return false
	}
	if el, ok := c.entries[pc]; ok {
		old := el.Value.(*refEntry[T])
		c.used -= old.size
		c.lru.Remove(el)
		delete(c.entries, pc)
		if c.OnEvict != nil {
			c.OnEvict(pc, old.size)
		}
		if c.Recycle != nil {
			c.Recycle(old.value)
		}
	}
	for c.used+size > c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*refEntry[T])
		c.used -= e.size
		delete(c.entries, e.pc)
		c.lru.Remove(back)
		c.Evictions++
		if c.OnEvict != nil {
			c.OnEvict(e.pc, e.size)
		}
		if c.Recycle != nil {
			c.Recycle(e.value)
		}
	}
	c.entries[pc] = c.lru.PushFront(&refEntry[T]{pc: pc, size: size, value: value})
	c.used += size
	c.Insertions++
	if c.OnInsert != nil {
		c.OnInsert(pc, size)
	}
	return true
}

func (c *refUOpCache[T]) Invalidate(pc uint32) {
	if el, ok := c.entries[pc]; ok {
		old := el.Value.(*refEntry[T])
		c.used -= old.size
		c.lru.Remove(el)
		delete(c.entries, pc)
		if c.OnEvict != nil {
			c.OnEvict(pc, old.size)
		}
		if c.Recycle != nil {
			c.Recycle(old.value)
		}
	}
}

func (c *refUOpCache[T]) Used() int { return c.used }
func (c *refUOpCache[T]) Len() int  { return len(c.entries) }

// hashInverse is hashMul's multiplicative inverse mod 2^32 (Newton's
// iteration; each step doubles the correct low bits).
func hashInverse() uint32 {
	inv := uint32(hashMul)
	for i := 0; i < 5; i++ {
		inv *= 2 - hashMul*inv
	}
	return inv
}

// collidingPCs returns n distinct PCs whose hashes share their top
// 32-lowBits bits, so they share one home slot at every index size up
// to 2^(32-lowBits) positions.
func collidingPCs(top uint32, n int) []uint32 {
	const lowBits = 10
	inv := hashInverse()
	pcs := make([]uint32, n)
	for k := range pcs {
		pcs[k] = (top<<lowBits | uint32(k)) * inv
	}
	return pcs
}

// diffUOpCaches drives the flat UOpCache and the reference through the
// same random operation sequence over pcs, inserting regions of 1 to
// maxSize micro-ops (and the odd oversized one), and fails on the first
// difference in a return value, Len, Used, a counter, or the order and
// arguments of the OnInsert/OnEvict/Recycle calls.
func diffUOpCaches(t *testing.T, capacity, maxSize, ops int, pcs []uint32, seed int64) {
	t.Helper()
	c, r := NewUOpCache[int](capacity), newRefUOpCache[int](capacity)
	var got, want []string
	c.OnInsert = func(pc uint32, n int) { got = append(got, fmt.Sprintf("insert %#x %d", pc, n)) }
	c.OnEvict = func(pc uint32, n int) { got = append(got, fmt.Sprintf("evict %#x %d", pc, n)) }
	c.Recycle = func(v int) { got = append(got, fmt.Sprintf("recycle %d", v)) }
	r.OnInsert = func(pc uint32, n int) { want = append(want, fmt.Sprintf("insert %#x %d", pc, n)) }
	r.OnEvict = func(pc uint32, n int) { want = append(want, fmt.Sprintf("evict %#x %d", pc, n)) }
	r.Recycle = func(v int) { want = append(want, fmt.Sprintf("recycle %d", v)) }

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		pc := pcs[rng.Intn(len(pcs))]
		var op string
		switch k := rng.Intn(10); {
		case k < 4:
			size := rng.Intn(maxSize) + 1
			if rng.Intn(50) == 0 {
				size = capacity + 1
			}
			op = fmt.Sprintf("Insert(%#x, %d, %d)", pc, size, i)
			if g, w := c.Insert(pc, size, i), r.Insert(pc, size, i); g != w {
				t.Fatalf("op %d %s = %v, reference %v", i, op, g, w)
			}
		case k < 8:
			op = fmt.Sprintf("Lookup(%#x)", pc)
			gv, gok := c.Lookup(pc)
			wv, wok := r.Lookup(pc)
			if gv != wv || gok != wok {
				t.Fatalf("op %d %s = %d, %v, reference %d, %v", i, op, gv, gok, wv, wok)
			}
		case k < 9:
			op = fmt.Sprintf("Contains(%#x)", pc)
			if g, w := c.Contains(pc), r.Contains(pc); g != w {
				t.Fatalf("op %d %s = %v, reference %v", i, op, g, w)
			}
		default:
			op = fmt.Sprintf("Invalidate(%#x)", pc)
			c.Invalidate(pc)
			r.Invalidate(pc)
		}
		if c.Len() != r.Len() || c.Used() != r.Used() {
			t.Fatalf("after op %d %s: len/used %d/%d, reference %d/%d", i, op, c.Len(), c.Used(), r.Len(), r.Used())
		}
		if c.Insertions != r.Insertions || c.Evictions != r.Evictions || c.Hits != r.Hits || c.Lookups != r.Lookups {
			t.Fatalf("after op %d %s: counters %d/%d/%d/%d, reference %d/%d/%d/%d", i, op,
				c.Insertions, c.Evictions, c.Hits, c.Lookups, r.Insertions, r.Evictions, r.Hits, r.Lookups)
		}
		if len(got) != len(want) {
			t.Fatalf("after op %d %s: hook calls %q, reference %q", i, op, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("after op %d %s: hook calls %q, reference %q", i, op, got, want)
			}
		}
		got, want = got[:0], want[:0]
		if i%8 == 0 {
			checkIndex(t, c)
		}
	}
	// Every region the reference holds must be reachable in the flat
	// index, whatever the probe runs went through.
	for pc := range r.entries {
		if !c.Contains(pc) {
			t.Fatalf("region %#x resident in the reference is unreachable", pc)
		}
	}
}

// checkIndex fails unless every occupied index position is where find
// locates its PC, no two positions hold one PC, and the positions
// number Len. A deletion that strands an entry behind a hole fails here
// before the stranded entries can fill the index.
func checkIndex(t *testing.T, c *UOpCache[int]) {
	t.Helper()
	occupied := 0
	for pos, x := range c.index {
		if x.ref == 0 {
			continue
		}
		occupied++
		if p, s := c.find(x.pc); p != pos || s != x.ref-1 {
			t.Fatalf("index position %d holds %#x (slot %d); find gives position %d, slot %d", pos, x.pc, x.ref-1, p, s)
		}
	}
	if occupied != c.Len() {
		t.Fatalf("index holds %d regions, Len %d", occupied, c.Len())
	}
}

// TestUOpCacheMatchesReference compares the flat UOpCache with the map
// and container/list one it replaced over random operation sequences:
// spread PCs (growing the index past several doublings), a tiny PC
// domain (constant same-PC replacement), and PCs that all hash to one
// home slot — mid-index and at the last slot, so probe runs wrap —
// which exercises backward-shift deletion.
func TestUOpCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spread := make([]uint32, 3000)
	for i := range spread {
		spread[i] = 0x400000 + uint32(rng.Intn(1<<20))
	}
	tiny := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	clustered := append(collidingPCs(1<<21, 40), collidingPCs(1<<22-1, 40)...)
	clustered = append(clustered, spread[:40]...)
	cases := []struct {
		name              string
		capacity, maxSize int
		pcs               []uint32
	}{
		{"spread", 16 << 10, 256, spread},
		{"tiny", 256, 96, tiny},
		{"clustered", 1024, 16, clustered},
		{"clustered_evicting", 512, 64, clustered},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffUOpCaches(t, tc.capacity, tc.maxSize, 40_000, tc.pcs, int64(i+1))
		})
	}
}

// TestUOpCacheCollisionsShareHome checks the stress case's premise: the
// clustered PCs really do share one home slot at every index size the
// cache can reach with them resident.
func TestUOpCacheCollisionsShareHome(t *testing.T) {
	c := NewUOpCache[int](1 << 20)
	for size := minIndex; size <= 1<<12; size *= 2 {
		c.resize(size)
		for _, top := range []uint32{1 << 21, 1<<22 - 1} {
			pcs := collidingPCs(top, 40)
			h := c.home(pcs[0])
			for _, pc := range pcs[1:] {
				if c.home(pc) != h {
					t.Fatalf("index size %d: %#x homes at %d, %#x at %d", size, pc, c.home(pc), pcs[0], h)
				}
			}
			if top == 1<<22-1 && h != size-1 {
				t.Errorf("index size %d: wrap cluster homes at %d, want the last slot", size, h)
			}
		}
	}
}

// TestCacheNewAllocs: New makes O(1) allocations — the struct and its
// two arrays — whatever the set count.
func TestCacheNewAllocs(t *testing.T) {
	for _, g := range []struct{ size, ways int }{{8 << 10, 2}, {32 << 10, 4}, {512 << 10, 8}} {
		if n := testing.AllocsPerRun(20, func() { New(g.size, 64, g.ways) }); n > 3 {
			t.Errorf("New(%d, 64, %d) made %.0f allocations, want at most 3", g.size, g.ways, n)
		}
	}
}

// TestUOpCacheChurnAllocs: once the entries and index have grown to the
// working set, inserts, replacements, evictions, lookups and
// invalidations allocate nothing.
func TestUOpCacheChurnAllocs(t *testing.T) {
	c := NewUOpCache[int](16 << 10)
	var displaced int
	c.OnInsert = func(uint32, int) {}
	c.OnEvict = func(uint32, int) {}
	c.Recycle = func(int) { displaced++ }
	rng := rand.New(rand.NewSource(3))
	type op struct {
		pc   uint32
		size int
	}
	ops := make([]op, 4096)
	for i := range ops {
		ops[i] = op{0x400000 + 16*uint32(rng.Intn(4096)), rng.Intn(248) + 8}
	}
	churn := func() {
		for i, o := range ops {
			if _, ok := c.Lookup(o.pc); !ok {
				c.Insert(o.pc, o.size, i)
			} else if i%7 == 0 {
				c.Invalidate(o.pc)
			}
		}
	}
	churn() // grow to the working set
	if n := testing.AllocsPerRun(20, churn); n != 0 {
		t.Errorf("steady-state churn made %.1f allocations per pass, want 0", n)
	}
	if c.Evictions == 0 || displaced == 0 {
		t.Fatalf("churn exercised %d evictions, %d displacements; want both", c.Evictions, displaced)
	}
}
