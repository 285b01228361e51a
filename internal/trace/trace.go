// Package trace defines the instruction trace record of the simulation
// environment — the stand-in for the hardware-generated x86 traces the
// paper obtained from AMD (Section 5.1.1).
//
// A trace is a code image plus one record per retired x86 instruction.
// Each record carries the instruction's register state changes, resulting
// flags, and memory transactions, exactly the information the paper's
// trace reader consumes: load data drives the Micro-Op Injector, store
// data and register changes drive the State Verifier.
package trace

// MemOp is one memory transaction of an instruction.
type MemOp struct {
	Addr    uint32
	Data    uint32 // value loaded or stored
	IsStore bool
}

// Record describes the architectural effects of one retired x86
// instruction.
type Record struct {
	PC  uint32
	Len uint8 // instruction length in bytes

	// RegMask has bit r set when GPR r changed; bit 8 set when the flags
	// changed.
	RegMask uint16
	// RegVals holds the new values of changed GPRs, in ascending register
	// order.
	RegVals []uint32
	// Flags is the flag state after the instruction (only meaningful bits).
	Flags uint32

	MemOps []MemOp

	// NextPC is the address of the next executed instruction (reflects
	// taken branches).
	NextPC uint32
}

const flagsChangedBit = 1 << 8

// SetReg records a changed register value (must be called in ascending
// register order).
func (r *Record) SetReg(reg uint8, val uint32) {
	r.RegMask |= 1 << reg
	r.RegVals = append(r.RegVals, val)
}

// SetFlagsChanged marks the flags as changed by this instruction.
func (r *Record) SetFlagsChanged() { r.RegMask |= flagsChangedBit }

// FlagsChanged reports whether the instruction modified the flags.
func (r *Record) FlagsChanged() bool { return r.RegMask&flagsChangedBit != 0 }

// ChangedRegs iterates the changed (reg, value) pairs.
func (r *Record) ChangedRegs(fn func(reg uint8, val uint32)) {
	i := 0
	for reg := uint8(0); reg < 8; reg++ {
		if r.RegMask&(1<<reg) != 0 {
			fn(reg, r.RegVals[i])
			i++
		}
	}
}

// Taken reports whether the instruction redirected control flow (its
// successor is not the next sequential instruction).
func (r *Record) Taken() bool { return r.NextPC != r.PC+uint32(r.Len) }

// Trace is a complete captured execution: the code image and the record
// stream. It corresponds to one of the paper's per-"hot spot" trace files.
type Trace struct {
	Name     string
	CodeBase uint32
	Code     []byte
	Records  []Record
}

// InstBytes returns the encoded bytes of the instruction at pc, or nil if
// pc is outside the code image.
func (t *Trace) InstBytes(pc uint32) []byte {
	if pc < t.CodeBase || pc >= t.CodeBase+uint32(len(t.Code)) {
		return nil
	}
	return t.Code[pc-t.CodeBase:]
}

// Stats summarizes a trace.
type Stats struct {
	Insts    int
	Loads    int
	Stores   int
	Branches int // taken control transfers
}

// ComputeStats scans the record stream.
func (t *Trace) ComputeStats() Stats {
	var s Stats
	s.Insts = len(t.Records)
	for i := range t.Records {
		r := &t.Records[i]
		for _, m := range r.MemOps {
			if m.IsStore {
				s.Stores++
			} else {
				s.Loads++
			}
		}
		if r.Taken() {
			s.Branches++
		}
	}
	return s
}
