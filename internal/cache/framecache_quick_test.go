package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestUOpCacheQuickReplacementAccounting model-checks the UOpCache's
// occupancy accounting under random Insert/Invalidate sequences over a
// deliberately tiny PC domain, so the same PC is re-inserted with a
// different size constantly (the frame-growth pattern: a cached frame is
// replaced by a larger rebuild of the same start PC). Invariants after
// every operation:
//
//   - Used() equals the sum of the sizes of the regions present
//   - Len() equals the number of regions present
//   - Used() never exceeds the capacity
//   - a successful Insert leaves its own region resident
func TestUOpCacheQuickReplacementAccounting(t *testing.T) {
	const capacity = 256
	c := NewUOpCache[uint32](capacity)
	model := map[uint32]int{} // pc -> size of regions currently cached

	sync := func() {
		// Inserts evict LRU victims; drop them from the model too.
		for pc := range model {
			if !c.Contains(pc) {
				delete(model, pc)
			}
		}
	}
	check := func() bool {
		sum := 0
		for _, s := range model {
			sum += s
		}
		return c.Used() == sum && c.Len() == len(model) && c.Used() <= capacity
	}

	op := func(pcRaw, sizeRaw uint8, invalidate bool) bool {
		pc := uint32(pcRaw % 8)
		size := int(sizeRaw)%96 + 1
		if invalidate {
			c.Invalidate(pc)
			delete(model, pc)
			return check()
		}
		if !c.Insert(pc, size, pc) {
			t.Errorf("Insert(%d, %d) rejected below capacity", pc, size)
			return false
		}
		model[pc] = size
		sync()
		if !c.Contains(pc) {
			t.Errorf("Insert(%d, %d) did not leave the region resident", pc, size)
			return false
		}
		v, ok := c.Lookup(pc)
		if !ok || v != pc {
			t.Errorf("Lookup(%d) = %v, %v after insert", pc, v, ok)
			return false
		}
		return check()
	}
	if err := quick.Check(op, &quick.Config{MaxCount: 10_000}); err != nil {
		t.Error(err)
	}
}

// TestUOpCacheRecycleEveryDisplaced checks the Recycle contract: across
// capacity eviction, same-PC replacement and Invalidate, every value the
// cache accepted reaches Recycle exactly once, and no Insert recycles the
// value it is inserting.
func TestUOpCacheRecycleEveryDisplaced(t *testing.T) {
	const capacity = 256
	c := NewUOpCache[int](capacity)
	recycled := map[int]int{} // value -> Recycle calls
	inserting := -1
	c.Recycle = func(v int) {
		if v == inserting {
			t.Errorf("Insert recycled the value %d it was inserting", v)
		}
		recycled[v]++
	}
	rng := rand.New(rand.NewSource(1))
	var accepted []int
	var replaced, evicted, invalidated int
	for v := 0; v < 20_000; v++ {
		pc := uint32(rng.Intn(8))
		if rng.Intn(4) == 0 {
			if c.Contains(pc) {
				invalidated++
			}
			c.Invalidate(pc)
			continue
		}
		before := c.Evictions
		if c.Contains(pc) {
			replaced++
		}
		inserting = v
		if c.Insert(pc, rng.Intn(96)+1, v) {
			accepted = append(accepted, v)
		}
		inserting = -1
		evicted += int(c.Evictions - before)
	}
	for pc := uint32(0); pc < 8; pc++ {
		c.Invalidate(pc)
	}
	if replaced == 0 || evicted == 0 || invalidated == 0 {
		t.Fatalf("sequence missed a displacement path: %d replaced, %d evicted, %d invalidated",
			replaced, evicted, invalidated)
	}
	for _, v := range accepted {
		if n := recycled[v]; n != 1 {
			t.Errorf("value %d recycled %d times, want 1", v, n)
		}
	}
	if len(recycled) != len(accepted) {
		t.Errorf("Recycle saw %d distinct values, the cache accepted %d", len(recycled), len(accepted))
	}
}
