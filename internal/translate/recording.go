package translate

import "unsafe"

// Recording is a retired instruction stream stored columnar: per
// retired instruction only the decode-table entry, the successor PC and
// the memory addresses vary, so those are kept in flat arrays (~12
// bytes per instruction) while the decode and translation are shared
// per PC in the table. It is the one stored form of a retired stream:
// the interpreter's captures and adapted external traces alike. A
// recording is append-only; once no longer appended to it may be read
// from any number of goroutines.
type Recording struct {
	table    *Table
	entries  []int32 // per slot: a table entry index
	nextPCs  []uint32
	memOff   []uint32 // prefix offsets into memAddrs; len = Len()+1
	memAddrs []uint32
}

// NewRecording returns an empty recording over tab with room for n
// slots.
func NewRecording(tab *Table, n int) *Recording {
	return &Recording{
		table:   tab,
		entries: make([]int32, 0, n),
		nextPCs: make([]uint32, 0, n),
		memOff:  make([]uint32, 1, n+1),
	}
}

// Append records one retired instruction: its table entry index, its
// dynamic successor and the memory addresses it touched, in flow order.
// The addresses are copied.
func (r *Recording) Append(entry int32, nextPC uint32, addrs []uint32) {
	r.entries = append(r.entries, entry)
	r.nextPCs = append(r.nextPCs, nextPC)
	r.memAddrs = append(r.memAddrs, addrs...)
	r.memOff = append(r.memOff, uint32(len(r.memAddrs)))
}

// Len is the number of recorded slots.
func (r *Recording) Len() int { return len(r.entries) }

// At returns slot i: its decode entry, its successor and its memory
// addresses (nil when it touched none). The entry and the addresses,
// which alias the recording's array capacity-clipped, are read-only.
func (r *Recording) At(i int) (e *Entry, nextPC uint32, addrs []uint32) {
	if lo, hi := r.memOff[i], r.memOff[i+1]; hi > lo {
		addrs = r.memAddrs[lo:hi:hi]
	}
	return r.table.Entry(r.entries[i]), r.nextPCs[i], addrs
}

// SizeBytes is the recording's heap residency: the columns by capacity
// and the decode table they index.
func (r *Recording) SizeBytes() int64 {
	b := int64(unsafe.Sizeof(int32(0))) * int64(cap(r.entries))
	b += int64(unsafe.Sizeof(uint32(0))) * int64(cap(r.nextPCs)+cap(r.memOff)+cap(r.memAddrs))
	return b + r.table.SizeBytes()
}
