package cache

import (
	"math/rand"
	"testing"
)

// BenchmarkCacheAccess times one Access on the L1D (32kB, 4-way) and L2
// (512kB, 8-way) geometries of Table 2, 64-byte lines, over a hit-heavy
// stream (a working set of half the capacity) and a miss-heavy one
// (uniform over 64MB).
func BenchmarkCacheAccess(b *testing.B) {
	geoms := []struct {
		name       string
		size, ways int
	}{{"L1D", 32 << 10, 4}, {"L2", 512 << 10, 8}}
	for _, g := range geoms {
		for _, st := range []struct {
			name string
			span int
		}{{"hit", g.size / 2}, {"miss", 64 << 20}} {
			b.Run(g.name+"_"+st.name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				addrs := make([]uint32, 1<<14)
				for i := range addrs {
					addrs[i] = uint32(rng.Intn(st.span))
				}
				c := New(g.size, 64, g.ways)
				for _, a := range addrs {
					c.Access(a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Access(addrs[i&(len(addrs)-1)])
				}
			})
		}
	}
}

// BenchmarkUOpCache times one fetch-group probe of a frame cache of the
// paper's 16k-µop capacity: a Lookup, and on a miss an Insert of an
// 8-256 µop region, which evicts LRU regions once the cache is full.
// Start PCs are drawn skewed over a footprint larger than the cache, so
// hits, misses and eviction churn all occur.
func BenchmarkUOpCache(b *testing.B) {
	type probe struct {
		pc   uint32
		size int
	}
	rng := rand.New(rand.NewSource(1))
	probes := make([]probe, 1<<14)
	for i := range probes {
		// Squaring a uniform draw favours the low (hot) PCs.
		u := rng.Float64()
		probes[i] = probe{0x400000 + 16*uint32(u*u*320), rng.Intn(249) + 8}
	}
	c := NewUOpCache[int](16 << 10)
	run := func(n int) {
		for i := 0; i < n; i++ {
			p := probes[i&(len(probes)-1)]
			if _, ok := c.Lookup(p.pc); !ok {
				c.Insert(p.pc, p.size, i)
			}
		}
	}
	run(len(probes))
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if c.Lookups > 0 {
		b.ReportMetric(float64(c.Hits)/float64(c.Lookups), "hit_frac")
	}
}
