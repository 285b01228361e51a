// Package cache implements the memory-side timing structures of the
// Table 2 configuration: generic set-associative caches with LRU
// replacement (instruction cache, L1 data cache, L2), plus the
// micro-op-capacity frame cache and trace cache.
package cache

import "sync"

// Cache is a set-associative cache with true-LRU replacement. It models
// hit/miss behaviour only (contents are tags, not data).
//
// The whole cache is two flat arrays of sets*ways entries, set s owning
// [s*ways : s*ways+ways] of each: tags holds line+1 (0 marks an empty
// way, so "valid" needs no array of its own) and stamps the access clock
// of each way's last touch. Clock stamps are unique, so the LRU victim
// of a full set is unique too, and an empty way (stamp 0) always loses
// to a filled one: which empty way a miss fills never changes a later
// hit or miss.
type Cache struct {
	lineShift uint
	setMask   uint32
	ways      int
	tags      []uint32
	stamps    []uint64
	clock     uint64

	// Accesses/Misses count lookups.
	Accesses uint64
	Misses   uint64
}

// New returns a cache of the given total size, line size and
// associativity. The set count is rounded down to a power of two when
// the size/line/way combination does not yield one: the set index is a
// mask, and masking with a non-power-of-two count silently skips sets
// and aliases lines (shrinking the effective capacity unpredictably).
// The line size is likewise rounded down to a power of two, and lines
// are at least 2 bytes: a tag is stored as line+1, which must not wrap
// to the empty mark.
func New(sizeBytes, lineBytes, ways int) *Cache {
	sets := sizeBytes / lineBytes / ways
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	c := take(sets * ways)
	c.ways, c.setMask, c.lineShift = ways, uint32(sets-1), 0
	for lineBytes > 1 {
		lineBytes >>= 1
		c.lineShift++
	}
	c.lineShift = max(c.lineShift, 1)
	return c
}

// Caches outlive the engine that filled them: Put clears a cache and
// pools it by its array length (sets*ways), and the next New of that
// length takes it instead of allocating and zeroing fresh arrays. An
// engine's three caches are three lengths, so each length has a pool
// of its own.
var pools sync.Map // int -> *sync.Pool

func poolFor(n int) *sync.Pool {
	if p, ok := pools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(n, new(sync.Pool))
	return p.(*sync.Pool)
}

// take returns an empty cache with arrays of n ways in all.
func take(n int) *Cache {
	if c, _ := poolFor(n).Get().(*Cache); c != nil {
		return c
	}
	return &Cache{tags: make([]uint32, n), stamps: make([]uint64, n)}
}

// Put clears c and pools it for the next New of its array length. The
// caller must not use c again.
func Put(c *Cache) {
	clear(c.tags)
	clear(c.stamps)
	c.clock, c.Accesses, c.Misses = 0, 0, 0
	poolFor(len(c.tags)).Put(c)
}

// set returns the tag and stamp windows of line's set.
func (c *Cache) set(line uint32) ([]uint32, []uint64) {
	base := int(line&c.setMask) * c.ways
	end := base + c.ways
	return c.tags[base:end:end], c.stamps[base:end:end]
}

// Access looks up addr, filling the line on a miss. Returns true on hit.
func (c *Cache) Access(addr uint32) bool {
	c.clock++
	c.Accesses++
	line := addr >> c.lineShift
	tags, stamps := c.set(line)
	stamps = stamps[:len(tags)]
	for w, t := range tags {
		if t == line+1 {
			stamps[w] = c.clock
			return true
		}
	}
	c.Misses++
	// Fill the LRU way; an empty way's stamp is 0, below any clock.
	victim := 0
	for w := 1; w < len(stamps); w++ {
		if stamps[w] < stamps[victim] {
			victim = w
		}
	}
	tags[victim] = line + 1
	stamps[victim] = c.clock
	return false
}

// Contains reports whether addr currently hits without updating state.
func (c *Cache) Contains(addr uint32) bool {
	line := addr >> c.lineShift
	tags, _ := c.set(line)
	for _, t := range tags {
		if t == line+1 {
			return true
		}
	}
	return false
}
