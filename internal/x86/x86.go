// Package x86 models the IA-32 subset used by the reproduction: the eight
// 32-bit general-purpose registers, the arithmetic flags, condition codes,
// an instruction representation, and a binary encoder/decoder for real
// IA-32 machine code (ModRM/SIB/displacement/immediate forms).
//
// The subset covers what compiler-generated 32-bit integer code needs:
// MOV/LEA/XCHG data movement, the classic ALU group, shifts, multiply and
// divide, stack operations, and control transfer. All operations are
// 32-bit; the reproduction does not model 8/16-bit sub-registers or
// prefixes (see DESIGN.md).
package x86

import "fmt"

// Reg is an IA-32 general-purpose register. The numeric values match the
// hardware register numbers used in ModRM/SIB encodings.
type Reg uint8

// The eight general-purpose registers, in hardware encoding order.
const (
	EAX Reg = 0
	ECX Reg = 1
	EDX Reg = 2
	EBX Reg = 3
	ESP Reg = 4
	EBP Reg = 5
	ESI Reg = 6
	EDI Reg = 7

	// RegNone marks an absent register operand (e.g. no index register).
	RegNone Reg = 0xFF
)

// NumGPR is the number of general-purpose registers.
const NumGPR = 8

var regNames = [NumGPR]string{"EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI"}

func (r Reg) String() string {
	if r < NumGPR {
		return regNames[r]
	}
	if r == RegNone {
		return "-"
	}
	return fmt.Sprintf("R?%d", uint8(r))
}

// Valid reports whether r names one of the eight GPRs.
func (r Reg) Valid() bool { return r < NumGPR }

// Flags holds the IA-32 arithmetic flags modeled by the reproduction
// (CF, PF, ZF, SF, OF). AF is not modeled; no supported instruction or
// condition reads it.
type Flags uint32

// Flag bit positions match the IA-32 EFLAGS layout.
const (
	FlagC Flags = 1 << 0  // carry
	FlagP Flags = 1 << 2  // parity
	FlagZ Flags = 1 << 6  // zero
	FlagS Flags = 1 << 7  // sign
	FlagO Flags = 1 << 11 // overflow
)

// FlagMask selects the modeled flag bits.
const FlagMask = FlagC | FlagP | FlagZ | FlagS | FlagO

func (f Flags) String() string {
	s := ""
	for _, p := range []struct {
		bit  Flags
		name string
	}{{FlagC, "C"}, {FlagP, "P"}, {FlagZ, "Z"}, {FlagS, "S"}, {FlagO, "O"}} {
		if f&p.bit != 0 {
			s += p.name
		} else {
			s += "-"
		}
	}
	return s
}

// Cond is an IA-32 condition code. The numeric values match the 4-bit cc
// field of Jcc/SETcc/CMOVcc encodings.
type Cond uint8

// Condition codes in hardware encoding order.
const (
	CondO  Cond = 0x0 // overflow
	CondNO Cond = 0x1
	CondB  Cond = 0x2 // below (unsigned <)
	CondAE Cond = 0x3
	CondE  Cond = 0x4 // equal / zero
	CondNE Cond = 0x5
	CondBE Cond = 0x6
	CondA  Cond = 0x7
	CondS  Cond = 0x8 // sign
	CondNS Cond = 0x9
	CondP  Cond = 0xA
	CondNP Cond = 0xB
	CondL  Cond = 0xC // less (signed <)
	CondGE Cond = 0xD
	CondLE Cond = 0xE
	CondG  Cond = 0xF

	// CondNone marks an unconditional instruction.
	CondNone Cond = 0x10
)

var condNames = [16]string{
	"O", "NO", "B", "AE", "E", "NE", "BE", "A",
	"S", "NS", "P", "NP", "L", "GE", "LE", "G",
}

func (c Cond) String() string {
	if c < 16 {
		return condNames[c]
	}
	return "AL" // always
}

// Negate returns the condition with the opposite sense (E <-> NE, ...).
func (c Cond) Negate() Cond {
	if c >= 16 {
		return c
	}
	return c ^ 1
}

// Eval reports whether the condition holds under the given flags.
func (c Cond) Eval(f Flags) bool {
	cf := f&FlagC != 0
	zf := f&FlagZ != 0
	sf := f&FlagS != 0
	of := f&FlagO != 0
	pf := f&FlagP != 0
	switch c {
	case CondO:
		return of
	case CondNO:
		return !of
	case CondB:
		return cf
	case CondAE:
		return !cf
	case CondE:
		return zf
	case CondNE:
		return !zf
	case CondBE:
		return cf || zf
	case CondA:
		return !cf && !zf
	case CondS:
		return sf
	case CondNS:
		return !sf
	case CondP:
		return pf
	case CondNP:
		return !pf
	case CondL:
		return sf != of
	case CondGE:
		return sf == of
	case CondLE:
		return zf || sf != of
	case CondG:
		return !zf && sf == of
	default:
		return true
	}
}

// Op is a mnemonic-level opcode of the modeled subset.
type Op uint8

// Supported operations.
const (
	OpInvalid Op = iota
	OpMOV
	OpLEA
	OpXCHG
	OpCMOV // CMOVcc

	OpADD
	OpOR
	OpADC
	OpSBB
	OpAND
	OpSUB
	OpXOR
	OpCMP
	OpTEST

	OpINC
	OpDEC
	OpNEG
	OpNOT

	OpSHL
	OpSHR
	OpSAR

	OpIMUL // two- or three-operand form
	OpMUL  // EDX:EAX = EAX * r/m32
	OpDIV  // unsigned divide of EDX:EAX
	OpIDIV // signed divide of EDX:EAX
	OpCDQ  // sign-extend EAX into EDX

	OpPUSH
	OpPOP
	OpLEAVE

	OpJMP  // direct relative, or indirect via r/m
	OpJCC  // conditional relative
	OpCALL // direct relative, or indirect via r/m
	OpRET

	OpNOP
	OpHLT

	numOps
)

var opNames = [numOps]string{
	"INVALID", "MOV", "LEA", "XCHG", "CMOV",
	"ADD", "OR", "ADC", "SBB", "AND", "SUB", "XOR", "CMP", "TEST",
	"INC", "DEC", "NEG", "NOT",
	"SHL", "SHR", "SAR",
	"IMUL", "MUL", "DIV", "IDIV", "CDQ",
	"PUSH", "POP", "LEAVE",
	"JMP", "JCC", "CALL", "RET",
	"NOP", "HLT",
}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("Op?%d", uint8(o))
}

// OperandKind distinguishes the forms an instruction operand can take.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
)

// MemRef is an IA-32 memory reference: [Base + Index*Scale + Disp].
// Base and Index are RegNone when absent; Scale is 1, 2, 4, or 8.
type MemRef struct {
	Base  Reg
	Index Reg
	Scale uint8
	Disp  int32
}

func (m MemRef) String() string {
	s := "["
	sep := ""
	if m.Base != RegNone {
		s += m.Base.String()
		sep = "+"
	}
	if m.Index != RegNone {
		s += fmt.Sprintf("%s%s*%d", sep, m.Index, m.Scale)
		sep = "+"
	}
	if m.Disp != 0 || sep == "" {
		if m.Disp < 0 {
			s += fmt.Sprintf("-0x%X", uint32(-m.Disp))
		} else {
			s += fmt.Sprintf("%s0x%X", sep, uint32(m.Disp))
		}
	}
	return s + "]"
}

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int32
	Mem  MemRef
}

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp returns an immediate operand.
func ImmOp(v int32) Operand { return Operand{Kind: KindImm, Imm: v} }

// MemOp returns a memory operand.
func MemOp(m MemRef) Operand { return Operand{Kind: KindMem, Mem: m} }

// Mem builds a [base+disp] memory operand.
func Mem(base Reg, disp int32) Operand {
	return MemOp(MemRef{Base: base, Index: RegNone, Scale: 1, Disp: disp})
}

// MemIdx builds a [base+index*scale+disp] memory operand.
func MemIdx(base, index Reg, scale uint8, disp int32) Operand {
	return MemOp(MemRef{Base: base, Index: index, Scale: scale, Disp: disp})
}

// MemAbs builds an absolute [disp32] memory operand.
func MemAbs(addr uint32) Operand {
	return MemOp(MemRef{Base: RegNone, Index: RegNone, Scale: 1, Disp: int32(addr)})
}

func (o Operand) String() string {
	switch o.Kind {
	case KindReg:
		return o.Reg.String()
	case KindImm:
		if o.Imm < 0 {
			return fmt.Sprintf("-0x%X", uint32(-o.Imm))
		}
		return fmt.Sprintf("0x%X", uint32(o.Imm))
	case KindMem:
		return o.Mem.String()
	default:
		return ""
	}
}

// Inst is a decoded (or to-be-encoded) instruction.
//
// For two-address operations Dst is both the first source and the
// destination, matching IA-32 semantics. For relative control transfers
// (JMP/JCC/CALL with Dst.Kind == KindImm) the immediate holds the
// displacement relative to the end of the instruction; use TargetPC.
// Three-operand IMUL uses Dst (register), Src (r/m) and Imm3.
type Inst struct {
	Op   Op
	Cond Cond // condition for JCC/CMOV; CondNone otherwise
	Dst  Operand
	Src  Operand
	Imm3 int32 // third operand of IMUL r32, r/m32, imm32
	Len  int   // encoded length in bytes (set by Decode/Encode)
}

// TargetPC returns the absolute target of a relative control transfer
// located at pc. It is meaningful only for JMP/JCC/CALL with an immediate
// destination.
func (in Inst) TargetPC(pc uint32) uint32 {
	return pc + uint32(in.Len) + uint32(in.Dst.Imm)
}

// IsBranch reports whether the instruction redirects control flow.
func (in Inst) IsBranch() bool {
	switch in.Op {
	case OpJMP, OpJCC, OpCALL, OpRET:
		return true
	}
	return false
}

func (in Inst) String() string {
	name := in.Op.String()
	if in.Op == OpJCC {
		name = "J" + in.Cond.String()
	}
	if in.Op == OpCMOV {
		name = "CMOV" + in.Cond.String()
	}
	switch {
	case in.Op == OpIMUL && in.Src.Kind != KindNone && in.Imm3 != 0:
		return fmt.Sprintf("%s %s, %s, 0x%X", name, in.Dst, in.Src, uint32(in.Imm3))
	case in.Dst.Kind != KindNone && in.Src.Kind != KindNone:
		return fmt.Sprintf("%s %s, %s", name, in.Dst, in.Src)
	case in.Dst.Kind != KindNone:
		return fmt.Sprintf("%s %s", name, in.Dst)
	default:
		return name
	}
}
