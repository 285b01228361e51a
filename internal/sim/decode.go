package sim

import (
	"unsafe"

	"repro/internal/cpu"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

// decodedInst is one decode-table entry: an instruction's decode and
// micro-op translation, made once per PC.
type decodedInst struct {
	pc   uint32
	in   x86.Inst
	uops []uop.UOp
}

// decodeTable decodes and translates each PC once and then finds it
// without hashing: PCs inside the program's code image index a dense
// array by their offset from the image base, and only PCs outside the
// image (none, for generated programs) fall back to a map. Entries are
// append-only, so an entry index stays valid for the table's lifetime
// and a recording can store one per retired slot.
type decodeTable struct {
	base  uint32
	dense []int32          // entry index by pc-base; -1 = not decoded yet
	far   map[uint32]int32 // entry index by PC outside the image
	insts []decodedInst
}

// bytesPerInst sizes a new table's entries: generated code averages 3
// to 4 bytes per instruction (3.0-3.7 over a run that reaches every
// instruction of the image, across the built-in profiles), so a third
// of the image holds every entry such a run decodes without regrowing.
const bytesPerInst = 3

// newDecodeTable returns an empty table over a code image of size bytes
// at base, with room for the entries a run over the image decodes.
func newDecodeTable(base uint32, size int) *decodeTable {
	t := &decodeTable{base: base, dense: make([]int32, size), insts: make([]decodedInst, 0, size/bytesPerInst)}
	for i := range t.dense {
		t.dense[i] = -1
	}
	return t
}

// find returns pc's entry index, or -1 if pc has no entry yet.
func (t *decodeTable) find(pc uint32) int32 {
	if off := pc - t.base; off < uint32(len(t.dense)) {
		return t.dense[off]
	}
	if i, ok := t.far[pc]; ok {
		return i
	}
	return -1
}

// add appends an entry for a PC that has none and returns its index.
func (t *decodeTable) add(d decodedInst) int32 {
	i := int32(len(t.insts))
	t.insts = append(t.insts, d)
	if off := d.pc - t.base; off < uint32(len(t.dense)) {
		t.dense[off] = i
	} else {
		if t.far == nil {
			t.far = make(map[uint32]int32)
		}
		t.far[d.pc] = i
	}
	return i
}

// decode adds the entry for a PC that has none, decoding and translating
// the instruction at pc in mem, and returns its index.
func (t *decodeTable) decode(pc uint32, mem *cpu.Memory) (int32, error) {
	in, err := x86.Decode(mem.ReadBytes(pc, 15))
	if err != nil {
		return -1, err
	}
	us, err := translate.UOps(in, pc)
	if err != nil {
		return -1, err
	}
	return t.add(decodedInst{pc: pc, in: in, uops: us}), nil
}

// sizeBytes is the table's heap residency: the dense index, the entries
// by capacity and their micro-op flows, and the fallback map's keys and
// values (map bucket overhead aside).
func (t *decodeTable) sizeBytes() int64 {
	var (
		idx   = int64(unsafe.Sizeof(int32(0)))
		pc    = int64(unsafe.Sizeof(uint32(0)))
		entry = int64(unsafe.Sizeof(decodedInst{}))
		u     = int64(unsafe.Sizeof(uop.UOp{}))
	)
	b := idx*int64(len(t.dense)) + entry*int64(cap(t.insts)) + (pc+idx)*int64(len(t.far))
	for i := range t.insts {
		b += u * int64(len(t.insts[i].uops))
	}
	return b
}
