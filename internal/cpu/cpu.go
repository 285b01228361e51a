package cpu

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/trace"
	"repro/internal/x86"
)

// ErrHalted is returned by Step once the CPU has executed HLT.
var ErrHalted = errors.New("cpu: halted")

// CPU is the architectural state of the functional interpreter.
type CPU struct {
	Regs  [8]uint32
	Flags x86.Flags
	PC    uint32
	Mem   *Memory

	Halted bool

	// StepCount counts executed instructions.
	StepCount uint64

	// decoded caches decoded instructions by PC. The model does not
	// support self-modifying code, so the cache never invalidates.
	decoded map[uint32]x86.Inst

	// eff is the per-step effect accumulator, owned by the CPU so the
	// hot stepping paths reuse one buffer instead of allocating per
	// instruction. Step copies out of it before returning.
	eff stepEffects
}

// New returns a CPU with zeroed registers over the given memory.
func New(mem *Memory) *CPU {
	return &CPU{Mem: mem, decoded: make(map[uint32]x86.Inst)}
}

// SetReg writes a GPR.
func (c *CPU) SetReg(r x86.Reg, v uint32) { c.Regs[r] = v }

// effAddr computes the effective address of a memory reference.
func (c *CPU) effAddr(m x86.MemRef) uint32 {
	addr := uint32(m.Disp)
	if m.Base != x86.RegNone {
		addr += c.Regs[m.Base]
	}
	if m.Index != x86.RegNone {
		addr += c.Regs[m.Index] * uint32(m.Scale)
	}
	return addr
}

// stepEffects accumulates the trace-visible effects of one instruction.
type stepEffects struct {
	memOps []trace.MemOp
}

func (c *CPU) load(e *stepEffects, addr uint32) uint32 {
	v := c.Mem.Load32(addr)
	e.memOps = append(e.memOps, trace.MemOp{Addr: addr, Data: v})
	return v
}

func (c *CPU) store(e *stepEffects, addr uint32, v uint32) {
	c.Mem.Store32(addr, v)
	e.memOps = append(e.memOps, trace.MemOp{Addr: addr, Data: v, IsStore: true})
}

// readOperand fetches the value of a reg/imm/mem operand.
func (c *CPU) readOperand(e *stepEffects, o x86.Operand) uint32 {
	switch o.Kind {
	case x86.KindReg:
		return c.Regs[o.Reg]
	case x86.KindImm:
		return uint32(o.Imm)
	case x86.KindMem:
		return c.load(e, c.effAddr(o.Mem))
	}
	panic("cpu: bad operand")
}

// writeOperand writes a value to a reg/mem operand.
func (c *CPU) writeOperand(e *stepEffects, o x86.Operand, v uint32) {
	switch o.Kind {
	case x86.KindReg:
		c.Regs[o.Reg] = v
	case x86.KindMem:
		c.store(e, c.effAddr(o.Mem), v)
	default:
		panic("cpu: write to bad operand")
	}
}

// Flag computation. Written against the documented reproduction spec,
// independently of internal/uop.

func even8(v uint32) bool { return bits.OnesCount32(v&0xFF)&1 == 0 }

func (c *CPU) setSZP(r uint32) {
	c.Flags &^= x86.FlagZ | x86.FlagS | x86.FlagP
	if r == 0 {
		c.Flags |= x86.FlagZ
	}
	if int32(r) < 0 {
		c.Flags |= x86.FlagS
	}
	if even8(r) {
		c.Flags |= x86.FlagP
	}
}

func (c *CPU) flagsAdd(a, b, carry uint32) uint32 {
	sum := uint64(a) + uint64(b) + uint64(carry)
	r := uint32(sum)
	c.Flags = 0
	if sum > 0xFFFFFFFF {
		c.Flags |= x86.FlagC
	}
	// Signed overflow: operands agree in sign, result disagrees.
	if int32(a) >= 0 == (int32(b) >= 0) && (int32(a) >= 0) != (int32(r) >= 0) {
		c.Flags |= x86.FlagO
	}
	c.setSZP(r)
	return r
}

func (c *CPU) flagsSub(a, b, borrow uint32) uint32 {
	diff := uint64(a) - uint64(b) - uint64(borrow)
	r := uint32(diff)
	c.Flags = 0
	if diff > 0xFFFFFFFF { // wrapped: borrow out
		c.Flags |= x86.FlagC
	}
	if (int32(a) >= 0) != (int32(b) >= 0) && (int32(a) >= 0) != (int32(r) >= 0) {
		c.Flags |= x86.FlagO
	}
	c.setSZP(r)
	return r
}

func (c *CPU) flagsLogic(r uint32) uint32 {
	c.Flags = 0
	c.setSZP(r)
	return r
}

// fetch returns the decoded instruction at PC, decoding it on the first
// visit.
func (c *CPU) fetch() (x86.Inst, error) {
	in, ok := c.decoded[c.PC]
	if !ok {
		var err error
		in, err = x86.Decode(c.Mem.ReadBytes(c.PC, 15))
		if err != nil {
			return in, fmt.Errorf("cpu: at %#x: %w", c.PC, err)
		}
		c.decoded[c.PC] = in
	}
	return in, nil
}

// stepExec executes in, the decoded instruction at PC, accumulating its
// memory effects in c.eff. On success it advances PC and StepCount and
// returns the dynamic successor; on error the architectural position is
// unchanged.
func (c *CPU) stepExec(in *x86.Inst) (uint32, error) {
	c.eff.memOps = c.eff.memOps[:0]
	nextPC := c.PC + uint32(in.Len)
	if err := c.exec(in, &c.eff, &nextPC); err != nil {
		return 0, fmt.Errorf("cpu: at %#x (%s): %w", c.PC, *in, err)
	}
	c.PC = nextPC
	c.StepCount++
	return nextPC, nil
}

// Step decodes and executes one instruction at PC, returning its trace
// record. Once halted, Step returns ErrHalted.
func (c *CPU) Step() (trace.Record, error) {
	if c.Halted {
		return trace.Record{}, ErrHalted
	}
	pc := c.PC
	before := c.Regs
	flagsBefore := c.Flags
	in, err := c.fetch()
	if err != nil {
		return trace.Record{}, err
	}
	nextPC, err := c.stepExec(&in)
	if err != nil {
		return trace.Record{}, err
	}

	rec := trace.Record{PC: pc, Len: uint8(in.Len), NextPC: nextPC}
	if n := len(c.eff.memOps); n > 0 {
		rec.MemOps = make([]trace.MemOp, n)
		copy(rec.MemOps, c.eff.memOps)
	}
	for r := uint8(0); r < 8; r++ {
		if c.Regs[r] != before[r] {
			rec.SetReg(r, c.Regs[r])
		}
	}
	if c.Flags != flagsBefore {
		rec.SetFlagsChanged()
		rec.Flags = uint32(c.Flags)
	}
	return rec, nil
}

// StepAddrs executes one instruction like Step but reports only the
// memory addresses it touched, appended to addrs, plus the dynamic
// successor PC. It is the allocation-free fast path for the timing
// model's correct-path stream, which needs no register/value trace.
func (c *CPU) StepAddrs(addrs []uint32) ([]uint32, uint32, error) {
	if c.Halted {
		return addrs, 0, ErrHalted
	}
	in, err := c.fetch()
	if err != nil {
		return addrs, 0, err
	}
	return c.StepInst(&in, addrs)
}

// StepInst is StepAddrs for a caller that already holds the decoded
// instruction at PC, so the CPU's own decode cache is not consulted (the
// timing model's stream keeps a per-PC decode table of its own). in must
// be the decoding of the bytes at PC; the CPU only reads it.
func (c *CPU) StepInst(in *x86.Inst, addrs []uint32) ([]uint32, uint32, error) {
	if c.Halted {
		return addrs, 0, ErrHalted
	}
	nextPC, err := c.stepExec(in)
	if err != nil {
		return addrs, 0, err
	}
	for i := range c.eff.memOps {
		addrs = append(addrs, c.eff.memOps[i].Addr)
	}
	return addrs, nextPC, nil
}

const wordSize = 4

func (c *CPU) push(e *stepEffects, v uint32) {
	c.store(e, c.Regs[x86.ESP]-wordSize, v)
	c.Regs[x86.ESP] -= wordSize
}

func (c *CPU) pop(e *stepEffects) uint32 {
	v := c.load(e, c.Regs[x86.ESP])
	c.Regs[x86.ESP] += wordSize
	return v
}

func (c *CPU) exec(in *x86.Inst, e *stepEffects, nextPC *uint32) error {
	switch in.Op {
	case x86.OpNOP:
	case x86.OpHLT:
		c.Halted = true

	case x86.OpMOV:
		c.writeOperand(e, in.Dst, c.readOperand(e, in.Src))
	case x86.OpLEA:
		c.Regs[in.Dst.Reg] = c.effAddr(in.Src.Mem)
	case x86.OpXCHG:
		a := c.readOperand(e, in.Dst)
		b := c.Regs[in.Src.Reg]
		c.writeOperand(e, in.Dst, b)
		c.Regs[in.Src.Reg] = a
	case x86.OpCMOV:
		v := c.readOperand(e, in.Src)
		if in.Cond.Eval(c.Flags) {
			c.Regs[in.Dst.Reg] = v
		}

	case x86.OpADD:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		c.writeOperand(e, in.Dst, c.flagsAdd(a, b, 0))
	case x86.OpADC:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		carry := uint32(0)
		if c.Flags&x86.FlagC != 0 {
			carry = 1
		}
		c.writeOperand(e, in.Dst, c.flagsAdd(a, b, carry))
	case x86.OpSUB:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		c.writeOperand(e, in.Dst, c.flagsSub(a, b, 0))
	case x86.OpSBB:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		borrow := uint32(0)
		if c.Flags&x86.FlagC != 0 {
			borrow = 1
		}
		c.writeOperand(e, in.Dst, c.flagsSub(a, b, borrow))
	case x86.OpCMP:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		c.flagsSub(a, b, 0)
	case x86.OpAND:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		c.writeOperand(e, in.Dst, c.flagsLogic(a&b))
	case x86.OpTEST:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		c.flagsLogic(a & b)
	case x86.OpOR:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		c.writeOperand(e, in.Dst, c.flagsLogic(a|b))
	case x86.OpXOR:
		a, b := c.readOperand(e, in.Dst), c.readOperand(e, in.Src)
		c.writeOperand(e, in.Dst, c.flagsLogic(a^b))

	case x86.OpINC, x86.OpDEC:
		a := c.readOperand(e, in.Dst)
		savedCF := c.Flags & x86.FlagC
		var r uint32
		if in.Op == x86.OpINC {
			r = c.flagsAdd(a, 1, 0)
		} else {
			r = c.flagsSub(a, 1, 0)
		}
		c.Flags = (c.Flags &^ x86.FlagC) | savedCF
		c.writeOperand(e, in.Dst, r)
	case x86.OpNEG:
		a := c.readOperand(e, in.Dst)
		c.writeOperand(e, in.Dst, c.flagsSub(0, a, 0))
	case x86.OpNOT:
		a := c.readOperand(e, in.Dst)
		c.writeOperand(e, in.Dst, ^a) // NOT does not affect flags

	case x86.OpSHL, x86.OpSHR, x86.OpSAR:
		a := c.readOperand(e, in.Dst)
		n := c.readOperand(e, in.Src) & 31
		if n == 0 {
			// Count 0: result and flags unchanged; re-write for mem dst
			// symmetry with the micro-op flow (load+op+store still stores).
			c.writeOperand(e, in.Dst, a)
			break
		}
		var r uint32
		carry := false
		overflow := false
		switch in.Op {
		case x86.OpSHL:
			r = a << n
			carry = a&(1<<(32-n)) != 0
			overflow = (int32(r) < 0) != carry
		case x86.OpSHR:
			r = a >> n
			carry = a&(1<<(n-1)) != 0
			overflow = int32(a) < 0
		case x86.OpSAR:
			r = uint32(int32(a) >> n)
			carry = a&(1<<(n-1)) != 0
		}
		c.Flags = 0
		if carry {
			c.Flags |= x86.FlagC
		}
		if overflow {
			c.Flags |= x86.FlagO
		}
		c.setSZP(r)
		c.writeOperand(e, in.Dst, r)

	case x86.OpIMUL:
		// Per the reproduction spec, multiplies leave flags unchanged.
		switch {
		case in.Src.Kind == x86.KindNone:
			v := c.readOperand(e, in.Dst)
			p := int64(int32(c.Regs[x86.EAX])) * int64(int32(v))
			c.Regs[x86.EAX] = uint32(p)
			c.Regs[x86.EDX] = uint32(uint64(p) >> 32)
		case in.Imm3 != 0:
			v := c.readOperand(e, in.Src)
			c.Regs[in.Dst.Reg] = v * uint32(in.Imm3)
		default:
			v := c.readOperand(e, in.Src)
			c.Regs[in.Dst.Reg] *= v
		}
	case x86.OpMUL:
		v := c.readOperand(e, in.Dst)
		hi, lo := bits.Mul32(c.Regs[x86.EAX], v)
		c.Regs[x86.EAX] = lo
		c.Regs[x86.EDX] = hi
	case x86.OpDIV:
		v := c.readOperand(e, in.Dst)
		if v == 0 {
			return errors.New("divide by zero")
		}
		a := c.Regs[x86.EAX]
		c.Regs[x86.EAX] = a / v
		c.Regs[x86.EDX] = a % v
	case x86.OpIDIV:
		v := c.readOperand(e, in.Dst)
		if v == 0 {
			return errors.New("divide by zero")
		}
		a := int32(c.Regs[x86.EAX])
		c.Regs[x86.EAX] = uint32(a / int32(v))
		c.Regs[x86.EDX] = uint32(a % int32(v))
	case x86.OpCDQ:
		c.Regs[x86.EDX] = uint32(int32(c.Regs[x86.EAX]) >> 31)

	case x86.OpPUSH:
		c.push(e, c.readOperand(e, in.Dst))
	case x86.OpPOP:
		v := c.pop(e)
		if in.Dst.Kind == x86.KindReg && in.Dst.Reg == x86.ESP {
			c.Regs[x86.ESP] = v
		} else {
			c.writeOperand(e, in.Dst, v)
		}
	case x86.OpLEAVE:
		c.Regs[x86.ESP] = c.Regs[x86.EBP]
		c.Regs[x86.EBP] = c.pop(e)

	case x86.OpJMP:
		if in.Dst.Kind == x86.KindImm {
			*nextPC = in.TargetPC(c.PC)
		} else {
			*nextPC = c.readOperand(e, in.Dst)
		}
	case x86.OpJCC:
		if in.Cond.Eval(c.Flags) {
			*nextPC = in.TargetPC(c.PC)
		}
	case x86.OpCALL:
		c.push(e, c.PC+uint32(in.Len))
		if in.Dst.Kind == x86.KindImm {
			*nextPC = in.TargetPC(c.PC)
		} else {
			*nextPC = c.readOperand(e, in.Dst)
		}
	case x86.OpRET:
		*nextPC = c.pop(e)
		if in.Dst.Kind == x86.KindImm {
			c.Regs[x86.ESP] += uint32(in.Dst.Imm)
		}

	default:
		return fmt.Errorf("unsupported op %s", in.Op)
	}
	return nil
}

// Run executes instructions until HLT or limit steps, appending a record
// per instruction to the returned slice.
func (c *CPU) Run(limit int) ([]trace.Record, error) {
	records := make([]trace.Record, 0, 1024)
	for i := 0; i < limit && !c.Halted; i++ {
		rec, err := c.Step()
		if err != nil {
			return records, err
		}
		records = append(records, rec)
	}
	return records, nil
}
