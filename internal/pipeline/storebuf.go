package pipeline

// storeBuffer maps a store address to the completion time of the
// youngest in-flight store to it: an open-addressed table with linear
// probing, kept at most half full. A store overwrites any older entry
// for its address, and sweep drops the entries too old to forward.
type storeBuffer struct {
	slots []storeSlot // len is a power of two
	shift uint        // 32 - log2(len(slots)): hash keeps the top bits
	n     int         // live entries
}

type storeSlot struct {
	addr uint32
	live bool
	done uint64
}

// storeBufferInitBits sizes the table at 1<<storeBufferInitBits slots to
// start with; it doubles when more than half full.
const storeBufferInitBits = 8

func newStoreBuffer() storeBuffer {
	return storeBuffer{slots: make([]storeSlot, 1<<storeBufferInitBits), shift: 32 - storeBufferInitBits}
}

// home is addr's preferred slot (Fibonacci hashing: store addresses
// differ mostly in their low bits, which the multiply carries upward).
func (b *storeBuffer) home(addr uint32) int {
	return int((addr * 0x9E3779B1) >> b.shift)
}

// get returns the completion time of the youngest store to addr.
func (b *storeBuffer) get(addr uint32) (uint64, bool) {
	mask := len(b.slots) - 1
	for i := b.home(addr); ; i = (i + 1) & mask {
		s := &b.slots[i]
		if !s.live {
			return 0, false
		}
		if s.addr == addr {
			return s.done, true
		}
	}
}

// put records a store to addr completing at done, replacing any older
// store to the same address.
func (b *storeBuffer) put(addr uint32, done uint64) {
	mask := len(b.slots) - 1
	i := b.home(addr)
	for ; b.slots[i].live; i = (i + 1) & mask {
		if b.slots[i].addr == addr {
			b.slots[i].done = done
			return
		}
	}
	b.slots[i] = storeSlot{addr: addr, live: true, done: done}
	b.n++
	if 2*b.n > len(b.slots) {
		b.grow()
	}
}

// place stores an entry known to be absent in the first free slot of
// its probe sequence.
func (b *storeBuffer) place(s storeSlot) {
	mask := len(b.slots) - 1
	i := b.home(s.addr)
	for b.slots[i].live {
		i = (i + 1) & mask
	}
	b.slots[i] = s
}

// grow doubles the table and re-places every entry.
func (b *storeBuffer) grow() {
	old := b.slots
	b.slots = make([]storeSlot, 2*len(old))
	b.shift--
	for _, s := range old {
		if s.live {
			b.place(s)
		}
	}
}

// sweep drops every entry whose store can no longer forward at now or
// later (done+storeForwardWindow <= now), in place. It walks the slots
// once, starting just past one that was free before the sweep — no
// probe sequence wraps past a free slot — and re-places each survivor
// from its home. A survivor only ever moves back into a slot the walk
// has already passed, and passed slots are never freed again, so every
// probe sequence stays unbroken.
func (b *storeBuffer) sweep(now uint64) {
	if b.n == 0 {
		return
	}
	mask := len(b.slots) - 1
	start := 0
	for b.slots[start].live {
		start++
	}
	for k := 1; k <= mask; k++ {
		i := (start + k) & mask
		s := b.slots[i]
		if !s.live {
			continue
		}
		b.slots[i].live = false
		if s.done+storeForwardWindow <= now {
			b.n--
			continue
		}
		b.place(s)
	}
}
