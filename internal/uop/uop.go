// Package uop defines the rePLay micro-operation ISA: the fixed-format,
// RISC-style control words that x86 instructions decode into inside the
// modeled processor (the paper's Section 5.1.1 "rePLay ISA").
//
// Micro-operations are three-operand: dest <- srcA op srcB, with an
// immediate that substitutes for srcB when srcB is absent. The arithmetic
// flags live in a dedicated architectural register (FLAGS) so that flag
// dataflow is explicit: flag-writing micro-ops set WritesFlags, and
// flag-reading micro-ops (branches, assertions, ADC/SBB, selects,
// carry-preserving INC/DEC flows) are marked by ReadsFlags.
package uop

import (
	"fmt"

	"repro/internal/x86"
)

// Reg is a micro-operation architectural register: the eight x86 GPRs,
// the FLAGS register, and the translator temporaries ET0..ET7.
type Reg uint8

// Register space layout.
const (
	EAX Reg = 0
	ECX Reg = 1
	EDX Reg = 2
	EBX Reg = 3
	ESP Reg = 4
	EBP Reg = 5
	ESI Reg = 6
	EDI Reg = 7

	// FLAGS holds the arithmetic flags as an ordinary dataflow register.
	FLAGS Reg = 8

	// ET0 is the first translator temporary.
	ET0 Reg = 9

	// NumTemps is the number of translator temporaries.
	NumTemps = 8

	// NumRegs is the total architectural register count.
	NumRegs = 9 + NumTemps

	// RegNone marks an absent register operand.
	RegNone Reg = 0xFF
)

// FromX86 converts an x86 GPR number to a micro-op register.
func FromX86(r x86.Reg) Reg { return Reg(r) }

// IsGPR reports whether r is one of the eight x86 GPRs.
func (r Reg) IsGPR() bool { return r < 8 }

// IsTemp reports whether r is a translator temporary.
func (r Reg) IsTemp() bool { return r >= ET0 && r < NumRegs }

func (r Reg) String() string {
	switch {
	case r < 8:
		return x86.Reg(r).String()
	case r == FLAGS:
		return "FLAGS"
	case r.IsTemp():
		return fmt.Sprintf("ET%d", r-ET0)
	case r == RegNone:
		return "-"
	default:
		return fmt.Sprintf("U?%d", uint8(r))
	}
}

// Op is a micro-operation opcode.
type Op uint8

// Micro-operation opcodes.
const (
	NOP Op = iota

	// Data movement.
	LIMM // dest <- imm
	MOV  // dest <- srcA

	// ALU. dest <- srcA op (srcB | imm).
	ADD
	ADC // reads FLAGS (carry in)
	SUB
	SBB // reads FLAGS
	AND
	OR
	XOR
	SHL
	SHR
	SAR
	MULLO  // low 32 bits of product
	MULHIU // high 32 bits of unsigned product
	MULHIS // high 32 bits of signed product
	DIVU
	REMU
	DIVS
	REMS

	// LEA computes dest <- srcA + srcB*Scale + imm without touching flags.
	LEA

	// SELECT is a conditional move: dest <- cond(FLAGS) ? srcA : srcB.
	SELECT

	// Memory. A LOAD has full addressing: srcA + srcB*Scale + imm (either
	// register may be RegNone). A STORE address is srcA + imm only — its
	// srcB carries the data; indexed stores go through an LEA temporary.
	LOAD  // dest <- mem[srcA + srcB*Scale + imm]
	STORE // mem[srcA+imm] <- srcB

	// Control.
	JMP     // unconditional direct; target in Imm (absolute)
	JR      // unconditional indirect; target in srcA
	BR      // conditional direct on cond(FLAGS); target in Imm
	ASSERT  // frame assertion: fires (aborts frame) if cond(FLAGS) is false
	CASSERT // fused compare-and-assert: fires if !(srcA cond srcB/imm)

	numOps
)

var opNames = [numOps]string{
	"NOP", "LIMM", "MOV",
	"ADD", "ADC", "SUB", "SBB", "AND", "OR", "XOR",
	"SHL", "SHR", "SAR",
	"MULLO", "MULHIU", "MULHIS", "DIVU", "REMU", "DIVS", "REMS",
	"LEA", "SELECT", "LOAD", "STORE",
	"JMP", "JR", "BR", "ASSERT", "CASSERT",
}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("uop?%d", uint8(o))
}

// IsALU reports whether the op is a plain register-to-register computation.
func (o Op) IsALU() bool { return o >= ADD && o <= SELECT }

// IsMem reports whether the op accesses memory.
func (o Op) IsMem() bool { return o == LOAD || o == STORE }

// IsControl reports whether the op redirects or checks control flow.
func (o Op) IsControl() bool { return o >= JMP && o <= CASSERT }

// IsAssert reports whether the op is a frame assertion.
func (o Op) IsAssert() bool { return o == ASSERT || o == CASSERT }

// Commutative reports whether srcA and srcB can be exchanged.
func (o Op) Commutative() bool {
	switch o {
	case ADD, AND, OR, XOR, MULLO, MULHIU, MULHIS:
		return true
	}
	return false
}

// UOp is one micro-operation in the dynamic stream, using architectural
// register names. The optimizer works on the renamed form (package opt);
// this form is what the translator emits and the ICache fetch path decodes.
type UOp struct {
	Op   Op
	Cond x86.Cond // condition for BR/ASSERT/CASSERT/SELECT

	Dest Reg // RegNone if no GPR/temp result
	SrcA Reg
	SrcB Reg
	Imm  int32
	// Scale is the LEA index scale (1, 2, 4, 8).
	Scale uint8

	// WritesFlags marks micro-ops that produce the FLAGS register.
	WritesFlags bool
	// KeepCF marks flag writes that preserve the incoming carry flag
	// (x86 INC/DEC semantics); such micro-ops also read FLAGS.
	KeepCF bool
}

// DestReg returns the register the micro-op writes, or RegNone for ops
// without a register result regardless of the Dest field's (zero) value.
func (u UOp) DestReg() Reg {
	switch u.Op {
	case NOP, STORE, JMP, JR, BR, ASSERT, CASSERT:
		return RegNone
	}
	return u.Dest
}

// UsesSrcA reports whether the micro-op reads the SrcA field.
func (u UOp) UsesSrcA() bool {
	switch u.Op {
	case NOP, LIMM, JMP, BR, ASSERT:
		return false
	}
	return u.SrcA != RegNone
}

// UsesSrcB reports whether the micro-op reads the SrcB field.
func (u UOp) UsesSrcB() bool {
	switch u.Op {
	case ADD, ADC, SUB, SBB, AND, OR, XOR, SHL, SHR, SAR,
		MULLO, MULHIU, MULHIS, DIVU, REMU, DIVS, REMS,
		LEA, SELECT, STORE, CASSERT, LOAD:
		return u.SrcB != RegNone
	}
	return false
}

// ReadsFlags reports whether the micro-op consumes the FLAGS register.
func (u UOp) ReadsFlags() bool {
	switch u.Op {
	case ADC, SBB, BR, ASSERT, SELECT:
		return true
	}
	return u.WritesFlags && u.KeepCF
}

// HasSrcB reports whether srcB is a register (false means Imm is the
// second operand).
func (u UOp) HasSrcB() bool { return u.SrcB != RegNone }

func (u UOp) String() string {
	switch u.Op {
	case NOP:
		return "NOP"
	case LIMM:
		return fmt.Sprintf("%s <- %#x", u.Dest, uint32(u.Imm))
	case MOV:
		return fmt.Sprintf("%s <- %s", u.Dest, u.SrcA)
	case LEA:
		if u.SrcB != RegNone {
			return fmt.Sprintf("%s <- &[%s+%s*%d%+#x]", u.Dest, u.SrcA, u.SrcB, u.Scale, u.Imm)
		}
		return fmt.Sprintf("%s <- &[%s%+#x]", u.Dest, u.SrcA, u.Imm)
	case SELECT:
		return fmt.Sprintf("%s <- %s ? %s : %s", u.Dest, u.Cond, u.SrcA, u.SrcB)
	case LOAD:
		switch {
		case u.SrcA == RegNone && u.SrcB == RegNone:
			return fmt.Sprintf("%s <- [%#x]", u.Dest, uint32(u.Imm))
		case u.SrcB != RegNone:
			return fmt.Sprintf("%s <- [%s+%s*%d%+#x]", u.Dest, u.SrcA, u.SrcB, u.Scale, u.Imm)
		default:
			return fmt.Sprintf("%s <- [%s%+#x]", u.Dest, u.SrcA, u.Imm)
		}
	case STORE:
		if u.SrcA == RegNone {
			return fmt.Sprintf("[%#x] <- %s", uint32(u.Imm), u.SrcB)
		}
		return fmt.Sprintf("[%s%+#x] <- %s", u.SrcA, u.Imm, u.SrcB)
	case JMP:
		return fmt.Sprintf("jump %#x", uint32(u.Imm))
	case JR:
		return fmt.Sprintf("jump (%s)", u.SrcA)
	case BR:
		return fmt.Sprintf("if (%s) jump %#x", u.Cond, uint32(u.Imm))
	case ASSERT:
		return fmt.Sprintf("assert %s", u.Cond)
	case CASSERT:
		if u.SrcB != RegNone {
			return fmt.Sprintf("assert %s %s %s", u.SrcA, u.Cond, u.SrcB)
		}
		return fmt.Sprintf("assert %s %s %#x", u.SrcA, u.Cond, uint32(u.Imm))
	}
	// Generic ALU rendering.
	fl := ""
	if u.WritesFlags {
		fl = ",flags"
		if u.KeepCF {
			fl = ",flags*"
		}
	}
	if u.HasSrcB() {
		return fmt.Sprintf("%s%s <- %s %s %s", u.Dest, fl, u.SrcA, u.Op, u.SrcB)
	}
	return fmt.Sprintf("%s%s <- %s %s %#x", u.Dest, fl, u.SrcA, u.Op, uint32(u.Imm))
}

// Regs is the architectural register state of the micro-op machine.
type Regs struct {
	R [NumRegs]uint32
}

// Get returns the value of a register; RegNone reads as zero.
func (r *Regs) Get(reg Reg) uint32 {
	if reg == RegNone {
		return 0
	}
	return r.R[reg]
}

// Set writes a register; writes to RegNone are dropped.
func (r *Regs) Set(reg Reg, v uint32) {
	if reg == RegNone {
		return
	}
	r.R[reg] = v
}

// Flags returns the FLAGS register as typed flags.
func (r *Regs) Flags() x86.Flags { return x86.Flags(r.R[FLAGS]) & x86.FlagMask }

// SetFlags writes the FLAGS register.
func (r *Regs) SetFlags(f x86.Flags) { r.R[FLAGS] = uint32(f & x86.FlagMask) }

// Memory is the interface micro-op evaluation uses for loads and stores.
type Memory interface {
	Load32(addr uint32) uint32
	Store32(addr uint32, v uint32)
}

// MapMemory is a simple map-backed Memory, useful in tests and the verifier.
type MapMemory map[uint32]uint32

// Load32 returns the word at addr (zero if never written).
func (m MapMemory) Load32(addr uint32) uint32 { return m[addr] }

// Store32 writes the word at addr.
func (m MapMemory) Store32(addr uint32, v uint32) { m[addr] = v }
