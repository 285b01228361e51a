package translate

import (
	"unsafe"

	"repro/internal/uop"
	"repro/internal/x86"
)

// Entry is one decode-table entry, the static record of a decoded PC:
// the instruction's decode and micro-op translation, and the facts the
// timing model and frame construction read on every retirement,
// compiled once when Table.Add creates it.
type Entry struct {
	PC    uint32
	ID    int32 // the entry's index in its table
	Ctl   Control
	Loads uint8 // LOAD µops in UOps
	Inst  x86.Inst
	UOps  []uop.UOp
	Ops   []DispOp // UOps compiled for decoded-path dispatch, one per µop
}

// Control is an instruction's control-transfer kind.
type Control uint8

const (
	CtlNone    Control = iota
	CtlCond            // JCC
	CtlJump            // direct JMP
	CtlCall            // direct CALL
	CtlJumpInd         // indirect JMP
	CtlCallInd         // indirect CALL
	CtlRet             // RET
	CtlHalt            // HLT
)

// ControlOf classifies an instruction.
func ControlOf(in *x86.Inst) Control {
	direct := in.Dst.Kind == x86.KindImm
	switch in.Op {
	case x86.OpJCC:
		return CtlCond
	case x86.OpJMP:
		if direct {
			return CtlJump
		}
		return CtlJumpInd
	case x86.OpCALL:
		if direct {
			return CtlCall
		}
		return CtlCallInd
	case x86.OpRET:
		return CtlRet
	case x86.OpHLT:
		return CtlHalt
	}
	return CtlNone
}

// IsCall reports a direct or indirect CALL.
func (c Control) IsCall() bool { return c == CtlCall || c == CtlCallInd }

// IsIndirect reports a transfer whose target is read at run time: RET
// or an indirect JMP or CALL.
func (c Control) IsIndirect() bool { return c >= CtlJumpInd && c <= CtlRet }

// The decoded path's ready table, which DispOp indexes: slot 0 always
// reads zero (an absent source), register r's availability is at
// ReadyRegs+r, and ReadySink takes the write of an absent destination.
const (
	ReadyRegs  = 1
	ReadySink  = ReadyRegs + uop.NumRegs
	ReadySlots = ReadySink + 1
)

// DispOp is one µop compiled for decoded-path dispatch: the ready-table
// slots of its sources and destinations, and the unit class, latency
// and dispatch flags of its opcode.
type DispOp struct {
	SrcA, SrcB, SrcF  uint8
	Dst, DstF         uint8
	Class, Lat, Flags uint8
}

// compile resolves u's dispatch facts.
func compile(u *uop.UOp) DispOp {
	o := DispOp{Dst: ReadySink, DstF: ReadySink, Class: u.Op.Class(), Lat: u.Op.Latency(), Flags: u.Op.DispatchFlags()}
	if u.UsesSrcA() {
		o.SrcA = ReadyRegs + uint8(u.SrcA)
	}
	if u.UsesSrcB() {
		o.SrcB = ReadyRegs + uint8(u.SrcB)
	}
	if u.ReadsFlags() {
		o.SrcF = ReadyRegs + uint8(uop.FLAGS)
	}
	if d := u.DestReg(); d != uop.RegNone {
		o.Dst = ReadyRegs + uint8(d)
	}
	if u.WritesFlags {
		o.DstF = ReadyRegs + uint8(uop.FLAGS)
	}
	return o
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
	// ops is the chunk the entries' Ops are carved from; a full chunk
	// is left to the entries it holds and a new one, twice as large up
	// to opsChunk, started, so no entry's Ops moves. opsCap sums the
	// chunks' capacities.
	ops    []DispOp
	opsCap int
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
	// opsChunk caps an ops chunk's DispOp count (32 KB).
	opsChunk = 4 << 10
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

// Add appends an entry for a PC that has none, made from e's PC, Inst
// and UOps, and returns its index. It sets the entry's static facts:
// its ID, control kind, load count and compiled Ops.
func (t *Table) Add(e Entry) int32 {
	i := int32(len(t.entries))
	e.ID, e.Ctl, e.Loads = i, ControlOf(&e.Inst), 0
	if n := len(e.UOps); cap(t.ops)-len(t.ops) < n {
		t.ops = make([]DispOp, 0, max(min(2*t.opsCap, opsChunk), n, 16))
		t.opsCap += cap(t.ops)
	}
	lo := len(t.ops)
	for k := range e.UOps {
		t.ops = append(t.ops, compile(&e.UOps[k]))
		if e.UOps[k].Op == uop.LOAD {
			e.Loads++
		}
	}
	e.Ops = t.ops[lo:len(t.ops):len(t.ops)]
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
// by capacity, their micro-op flows and compiled ops chunks, and the
// fallback map's keys and values (map bucket overhead aside).
func (t *Table) SizeBytes() int64 {
	var (
		idx   = int64(unsafe.Sizeof(int32(0)))
		pc    = int64(unsafe.Sizeof(uint32(0)))
		entry = int64(unsafe.Sizeof(Entry{}))
		u     = int64(unsafe.Sizeof(uop.UOp{}))
		op    = int64(unsafe.Sizeof(DispOp{}))
	)
	b := idx*int64(len(t.dense)) + entry*int64(cap(t.entries)) + (pc+idx)*int64(len(t.far)) + op*int64(t.opsCap)
	for i := range t.entries {
		b += u * int64(len(t.entries[i].UOps))
	}
	return b
}
