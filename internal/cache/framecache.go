package cache

import "container/list"

// UOpCache is a micro-op-capacity cache of code regions keyed by start
// PC, with LRU replacement by total micro-op count — the storage model
// shared by the rePLay frame cache and the trace cache (16k micro-ops in
// the paper's configuration, approximately a 64kB ICache).
type UOpCache[T any] struct {
	capacity int
	used     int
	entries  map[uint32]*list.Element
	lru      *list.List // front = most recent

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

type entry[T any] struct {
	pc    uint32
	size  int
	value T
}

// NewUOpCache returns a cache holding at most capacity micro-ops.
func NewUOpCache[T any](capacity int) *UOpCache[T] {
	return &UOpCache[T]{
		capacity: capacity,
		entries:  make(map[uint32]*list.Element),
		lru:      list.New(),
	}
}

// Lookup returns the region starting at pc, promoting it to most
// recently used.
func (c *UOpCache[T]) Lookup(pc uint32) (T, bool) {
	c.Lookups++
	el, ok := c.entries[pc]
	if !ok {
		var zero T
		return zero, false
	}
	c.Hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry[T]).value, true
}

// Contains reports presence without promoting.
func (c *UOpCache[T]) Contains(pc uint32) bool {
	_, ok := c.entries[pc]
	return ok
}

// Insert stores a region of the given micro-op size, evicting LRU
// regions until it fits. A region larger than the whole cache is
// rejected. An existing region at the same PC is replaced.
func (c *UOpCache[T]) Insert(pc uint32, size int, value T) bool {
	if size > c.capacity {
		return false
	}
	if el, ok := c.entries[pc]; ok {
		old := el.Value.(*entry[T])
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
		e := back.Value.(*entry[T])
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
	c.entries[pc] = c.lru.PushFront(&entry[T]{pc: pc, size: size, value: value})
	c.used += size
	c.Insertions++
	if c.OnInsert != nil {
		c.OnInsert(pc, size)
	}
	return true
}

// Invalidate removes the region at pc if present.
func (c *UOpCache[T]) Invalidate(pc uint32) {
	if el, ok := c.entries[pc]; ok {
		old := el.Value.(*entry[T])
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

// Used returns the current micro-op occupancy.
func (c *UOpCache[T]) Used() int { return c.used }

// Len returns the number of cached regions.
func (c *UOpCache[T]) Len() int { return len(c.entries) }
