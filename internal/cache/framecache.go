package cache

import "math/bits"

// UOpCache is a micro-op-capacity cache of code regions keyed by start
// PC, with LRU replacement by total micro-op count — the storage model
// shared by the rePLay frame cache and the trace cache (16k micro-ops in
// the paper's configuration, approximately a 64kB ICache).
//
// Storage is flat. Regions live in one entries slice, threaded by int32
// slot numbers onto an intrusive doubly linked LRU list (or, once
// displaced, onto a free list), and are found through a power-of-two
// open-addressed index from start PC to slot: linear probing from a
// multiplicative hash, backward-shift deletion (so no tombstones), and
// doubling at 50% load. Once the slices have grown to the working set,
// inserts, lookups and evictions allocate nothing.
type UOpCache[T any] struct {
	capacity int
	used     int
	n        int // resident regions

	index   []indexSlot
	shift   uint // 32 - log2(len(index)): pc's home slot is pc*hashMul >> shift
	entries []entry[T]
	head    int32 // most recently used slot, nilSlot when empty
	tail    int32 // least recently used slot, nilSlot when empty
	free    int32 // first free slot, chained through next; nilSlot when none

	// Insertions/Evictions/Hits/Lookups count activity.
	Insertions uint64
	Evictions  uint64
	Hits       uint64
	Lookups    uint64

	// OnInsert/OnEvict, when set, observe cache activity (the
	// pipeline's residency stamps and probe). A same-PC replacement
	// reports the displaced region through OnEvict before the insert.
	OnInsert func(pc uint32, size int)
	OnEvict  func(pc uint32, size int)

	// Recycle, when set, receives every displaced value — capacity
	// eviction, same-PC replacement, and invalidation — after the
	// OnEvict observation. The pipeline uses it to return frame buffers
	// to their pools; the cache itself holds no reference afterwards.
	Recycle func(value T)
}

// indexSlot maps a start PC to its entry; ref is the entry's slot + 1,
// and 0 marks an empty index slot.
type indexSlot struct {
	pc  uint32
	ref int32
}

type entry[T any] struct {
	pc         uint32
	size       int32
	prev, next int32
	value      T
}

const (
	nilSlot  = -1
	hashMul  = 0x9E3779B1 // 2^32 / golden ratio
	minIndex = 64
)

// NewUOpCache returns a cache holding at most capacity micro-ops.
func NewUOpCache[T any](capacity int) *UOpCache[T] {
	c := &UOpCache[T]{capacity: capacity, head: nilSlot, tail: nilSlot, free: nilSlot}
	c.resize(minIndex)
	return c
}

// Lookup returns the region starting at pc, promoting it to most
// recently used.
func (c *UOpCache[T]) Lookup(pc uint32) (T, bool) {
	c.Lookups++
	_, s := c.find(pc)
	if s == nilSlot {
		var zero T
		return zero, false
	}
	c.Hits++
	if s != c.head {
		c.unlink(s)
		c.pushFront(s)
	}
	return c.entries[s].value, true
}

// Contains reports presence without promoting.
func (c *UOpCache[T]) Contains(pc uint32) bool {
	_, s := c.find(pc)
	return s != nilSlot
}

// Insert stores a region of the given micro-op size, evicting LRU
// regions until it fits. A region larger than the whole cache is
// rejected. An existing region at the same PC is replaced.
func (c *UOpCache[T]) Insert(pc uint32, size int, value T) bool {
	if size > c.capacity {
		return false
	}
	if pos, s := c.find(pc); s != nilSlot {
		_, oldSize, old := c.remove(pos, s)
		if c.OnEvict != nil {
			c.OnEvict(pc, oldSize)
		}
		if c.Recycle != nil {
			c.Recycle(old)
		}
	}
	for c.used+size > c.capacity && c.tail != nilSlot {
		s := c.tail
		pos, _ := c.find(c.entries[s].pc)
		epc, esize, ev := c.remove(pos, s)
		c.Evictions++
		if c.OnEvict != nil {
			c.OnEvict(epc, esize)
		}
		if c.Recycle != nil {
			c.Recycle(ev)
		}
	}
	if 2*(c.n+1) > len(c.index) {
		c.resize(2 * len(c.index))
	}
	s := c.free
	if s != nilSlot {
		c.free = c.entries[s].next
	} else {
		s = int32(len(c.entries))
		c.entries = append(c.entries, entry[T]{})
	}
	c.entries[s] = entry[T]{pc: pc, size: int32(size), value: value}
	c.pushFront(s)
	pos, _ := c.find(pc)
	c.index[pos] = indexSlot{pc: pc, ref: s + 1}
	c.n++
	c.used += size
	c.Insertions++
	if c.OnInsert != nil {
		c.OnInsert(pc, size)
	}
	return true
}

// Invalidate removes the region at pc if present.
func (c *UOpCache[T]) Invalidate(pc uint32) {
	if pos, s := c.find(pc); s != nilSlot {
		_, oldSize, old := c.remove(pos, s)
		if c.OnEvict != nil {
			c.OnEvict(pc, oldSize)
		}
		if c.Recycle != nil {
			c.Recycle(old)
		}
	}
}

// Used returns the current micro-op occupancy.
func (c *UOpCache[T]) Used() int { return c.used }

// Len returns the number of cached regions.
func (c *UOpCache[T]) Len() int { return c.n }

func (c *UOpCache[T]) home(pc uint32) int { return int(pc * hashMul >> c.shift) }

// find returns pc's index position and entry slot, or, when pc is
// absent, the empty position that ends its probe and nilSlot.
func (c *UOpCache[T]) find(pc uint32) (int, int32) {
	mask := len(c.index) - 1
	for i := c.home(pc); ; i = (i + 1) & mask {
		switch x := c.index[i]; {
		case x.ref == 0:
			return i, nilSlot
		case x.pc == pc:
			return i, x.ref - 1
		}
	}
}

// remove takes the region in slot s, indexed at pos, out of the index
// and the LRU list, frees its slot, and returns what it held.
func (c *UOpCache[T]) remove(pos int, s int32) (pc uint32, size int, value T) {
	c.unlink(s)
	c.deleteAt(pos)
	e := &c.entries[s]
	pc, size, value = e.pc, int(e.size), e.value
	*e = entry[T]{next: c.free}
	c.free = s
	c.used -= size
	c.n--
	return pc, size, value
}

// deleteAt empties index position i by backward shift: each later entry
// of the probe run moves back into the hole unless its home lies
// cyclically after the hole, which would strand it before its home.
func (c *UOpCache[T]) deleteAt(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j].ref != 0; j = (j + 1) & mask {
		if (j-c.home(c.index[j].pc))&mask >= (j-i)&mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = indexSlot{}
}

// resize rebuilds the index at size positions, a power of two.
func (c *UOpCache[T]) resize(size int) {
	old := c.index
	c.index = make([]indexSlot, size)
	c.shift = uint(32 - bits.TrailingZeros(uint(size)))
	for _, x := range old {
		if x.ref != 0 {
			pos, _ := c.find(x.pc)
			c.index[pos] = x
		}
	}
}

func (c *UOpCache[T]) unlink(s int32) {
	e := &c.entries[s]
	if e.prev != nilSlot {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nilSlot {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *UOpCache[T]) pushFront(s int32) {
	e := &c.entries[s]
	e.prev, e.next = nilSlot, c.head
	if c.head != nilSlot {
		c.entries[c.head].prev = s
	} else {
		c.tail = s
	}
	c.head = s
}
