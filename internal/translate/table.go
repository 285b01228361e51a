package translate

import (
	"unsafe"

	"repro/internal/uop"
	"repro/internal/x86"
)

// Entry is one decode-table entry: an instruction's decode and
// micro-op translation, made once per PC.
type Entry struct {
	PC   uint32
	Inst x86.Inst
	UOps []uop.UOp
}

// Table decodes and translates each PC once and then finds it without
// hashing: PCs inside a code image index a dense array by their offset
// from the image base, and only PCs outside the image (none, for
// generated programs) fall back to a map. A table over an empty image
// is map-only, its size set by the PCs added rather than by any image.
// Entries are append-only and never written once added, so an entry
// index stays valid for the table's lifetime, an entry pointer stays
// valid after the entry list grows, and a built table may be read from
// any number of goroutines.
type Table struct {
	base    uint32
	dense   []int32          // entry index by pc-base; -1 = not decoded yet
	far     map[uint32]int32 // entry index by PC outside the image
	entries []Entry
}

const (
	// bytesPerInst sizes a new table's entries: generated code averages
	// 3 to 4 bytes per instruction (3.0-3.7 over a run that reaches
	// every instruction of the image, across the built-in profiles), so
	// a third of the image holds every entry such a run decodes without
	// regrowing.
	bytesPerInst = 3
	// maxPrealloc caps that first allocation (~5 MB of entries), so a
	// large image that a run barely visits costs its dense index, not a
	// full entry list up front.
	maxPrealloc = 1 << 16
)

// NewTable returns an empty table over a code image of size bytes at
// base, with room for the entries a run over the image decodes.
func NewTable(base uint32, size int) *Table {
	t := &Table{base: base, dense: make([]int32, size), entries: make([]Entry, 0, min(size/bytesPerInst, maxPrealloc))}
	for i := range t.dense {
		t.dense[i] = -1
	}
	return t
}

// Find returns pc's entry index, or -1 if pc has no entry yet.
func (t *Table) Find(pc uint32) int32 {
	if off := pc - t.base; off < uint32(len(t.dense)) {
		return t.dense[off]
	}
	if i, ok := t.far[pc]; ok {
		return i
	}
	return -1
}

// Entry returns entry i, which the caller must not modify.
func (t *Table) Entry(i int32) *Entry { return &t.entries[i] }

// Add appends an entry for a PC that has none and returns its index.
func (t *Table) Add(e Entry) int32 {
	i := int32(len(t.entries))
	t.entries = append(t.entries, e)
	if off := e.PC - t.base; off < uint32(len(t.dense)) {
		t.dense[off] = i
	} else {
		if t.far == nil {
			t.far = make(map[uint32]int32)
		}
		t.far[e.PC] = i
	}
	return i
}

// DecodeError is a Decode failure in the x86 decoder, as opposed to
// the translator; its text is the decoder's.
type DecodeError struct{ Err error }

func (e *DecodeError) Error() string { return e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// Decode adds the entry for a PC that has none, decoding the
// instruction at the start of code (the bytes at pc) and translating
// it, and returns its index. A decoder failure comes back as a
// *DecodeError, a translator failure as UOps returns it.
func (t *Table) Decode(pc uint32, code []byte) (int32, error) {
	in, err := x86.Decode(code)
	if err != nil {
		return -1, &DecodeError{err}
	}
	us, err := UOps(in, pc)
	if err != nil {
		return -1, err
	}
	return t.Add(Entry{PC: pc, Inst: in, UOps: us}), nil
}

// SizeBytes is the table's heap residency: the dense index, the entries
// by capacity and their micro-op flows, and the fallback map's keys and
// values (map bucket overhead aside).
func (t *Table) SizeBytes() int64 {
	var (
		idx   = int64(unsafe.Sizeof(int32(0)))
		pc    = int64(unsafe.Sizeof(uint32(0)))
		entry = int64(unsafe.Sizeof(Entry{}))
		u     = int64(unsafe.Sizeof(uop.UOp{}))
	)
	b := idx*int64(len(t.dense)) + entry*int64(cap(t.entries)) + (pc+idx)*int64(len(t.far))
	for i := range t.entries {
		b += u * int64(len(t.entries[i].UOps))
	}
	return b
}
