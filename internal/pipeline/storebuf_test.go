package pipeline

import (
	"math/rand"
	"testing"
)

// TestStoreBufferMatchesMap runs random puts, gets and sweeps against a
// reference map with the engine's old drop rule. The clock only moves
// forward, as the engine's does, so no lookup is for a cycle before the
// last sweep; every get must still match the map exactly, which is more
// than the engine's forwarding check needs. The address pool mixes
// address 0, addresses that share its home slot at the initial size,
// and enough distinct ones to grow the table past that size.
func TestStoreBufferMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := newStoreBuffer()

	pool := []uint32{0, 4, 0xffff_fffc}
	for a := uint32(8); len(pool) < 16; a += 4 {
		if b.home(a) == b.home(0) {
			pool = append(pool, a) // collides with address 0
		}
	}
	for len(pool) < 2000 {
		pool = append(pool, 0x8000_0000-4*uint32(rng.Intn(1<<20)))
	}

	ref := map[uint32]uint64{}
	check := func(step int, addr uint32) {
		t.Helper()
		got, gotOK := b.get(addr)
		want, wantOK := ref[addr]
		if got != want || gotOK != wantOK {
			t.Fatalf("step %d: get(%#x) = %d, %v; want %d, %v", step, addr, got, gotOK, want, wantOK)
		}
	}
	sweep := func(now uint64) {
		b.sweep(now)
		for a, done := range ref {
			if done+storeForwardWindow <= now {
				delete(ref, a)
			}
		}
	}

	var now uint64
	grown, emptied := false, false
	for step := 0; step < 200_000; step++ {
		// Bursts of stores to a widening slice of the pool drive the
		// table past its initial size; quiet stretches let sweeps drain it.
		span := len(pool)
		if step/20_000%2 == 0 {
			span = 16
		}
		addr := pool[rng.Intn(span)]
		switch r := rng.Intn(100); {
		case r < 45:
			done := now + 1 + uint64(rng.Intn(40))
			b.put(addr, done)
			ref[addr] = done
		case r < 95:
			check(step, addr)
		case r < 99:
			now += uint64(rng.Intn(64))
		default:
			now += uint64(rng.Intn(4 * storeForwardWindow))
			sweep(now)
			if b.n == 0 && len(ref) == 0 && step > 0 {
				emptied = true
			}
		}
		if b.n != len(ref) {
			t.Fatalf("step %d: %d live entries, reference has %d", step, b.n, len(ref))
		}
		if len(b.slots) > 1<<storeBufferInitBits {
			grown = true
		}
	}
	for _, a := range pool {
		check(-1, a)
	}
	// A sweep long after the last store empties the table outright.
	sweep(now + 1 + 2*storeForwardWindow)
	if b.n != 0 {
		t.Errorf("%d entries survive a sweep past every store's window", b.n)
	}
	for _, a := range pool {
		check(-1, a)
	}
	if !grown {
		t.Error("table never grew past its initial size")
	}
	if !emptied {
		t.Error("no random sweep emptied the table")
	}
}
