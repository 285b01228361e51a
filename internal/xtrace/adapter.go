package xtrace

import (
	"fmt"

	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

// Recording adapts the trace into a recording of retired slots — the
// form the capture layer stores and replays into the pipeline, so the
// frame cache and optimizer run on external traces unmodified.
//
// Traces with an embedded code image take the exact path: every EIP is
// decoded and translated from the code bytes (deterministic, so an
// exported capture round-trips bit-identically). Traces without one take
// the synthesis path: each record class maps to a canonical micro-op and
// each instruction group to a canonical x86 instruction. The timing
// model never evaluates micro-op values — dataflow timing uses register
// indices and control divergence is detected by PC comparison — so
// synthesized flows exercise the pipeline, frame constructor, and
// optimizer exactly like interpreted ones.
func (t *Trace) Recording() (*translate.Recording, error) {
	groups, err := t.groups()
	if err != nil {
		return nil, err
	}
	if len(t.Code) > 0 {
		return t.codeSlots(groups)
	}
	return t.synthSlots(groups), nil
}

// group is one macro-instruction of the record stream: the half-open
// record range [lo,hi) sharing an EIP.
type group struct {
	lo, hi int
	eip    uint32
	taken  bool
}

func (t *Trace) groups() ([]group, error) {
	var gs []group
	for i := range t.Records {
		r := &t.Records[i]
		if r.First() {
			gs = append(gs, group{lo: i, hi: i + 1, eip: r.EIP})
		} else {
			g := &gs[len(gs)-1] // validate() guarantees record 0 is a first
			if r.EIP != g.eip {
				return nil, fmt.Errorf("%w: record %d changes EIP %#x -> %#x mid-instruction",
					ErrMalformed, i, g.eip, r.EIP)
			}
			g.hi = i + 1
		}
		if r.Taken() {
			gs[len(gs)-1].taken = true
		}
	}
	return gs, nil
}

// groupAddrs returns group g's record addresses in flow order, in buf
// (scratch reused across groups).
func (t *Trace) groupAddrs(g group, buf []uint32) []uint32 {
	buf = buf[:0]
	for i := g.lo; i < g.hi; i++ {
		if t.Records[i].HasAddr() {
			buf = append(buf, t.Records[i].Addr)
		}
	}
	return buf
}

// successor is group gi's observed successor: the next group's EIP, or
// after the last group the end-of-stream sentinel, when present.
func (t *Trace) successor(groups []group, gi int) (uint32, bool) {
	if gi+1 < len(groups) {
		return groups[gi+1].eip, true
	}
	return t.FinalPC, t.HasFinal
}

// codeSlots re-decodes every instruction from the embedded image. The
// successor of each slot is the next group's EIP; the last slot's comes
// from the end-of-stream sentinel, falling back to the decoded
// fall-through (or direct-branch target) when the sentinel is absent.
// The table has no dense index: its map grows with the PCs the records
// visit, not with the image, so a large image that a trace barely
// visits costs what is visited.
func (t *Trace) codeSlots(groups []group) (*translate.Recording, error) {
	tab := translate.NewTable(0, 0)
	rec := translate.NewRecording(tab, len(groups))
	var buf []uint32
	for gi, g := range groups {
		e := tab.Find(g.eip)
		if e < 0 {
			if g.eip < t.CodeBase || g.eip >= t.CodeBase+uint32(len(t.Code)) {
				return nil, fmt.Errorf("%w: record %d EIP %#x outside code image [%#x,%#x)",
					ErrInconsistent, g.lo, g.eip, t.CodeBase, t.CodeBase+uint32(len(t.Code)))
			}
			var err error
			if e, err = tab.Decode(g.eip, t.Code[g.eip-t.CodeBase:]); err != nil {
				return nil, fmt.Errorf("%w: record %d EIP %#x: %v", ErrInconsistent, g.lo, g.eip, err)
			}
		}
		d := tab.Entry(e)
		in, us := d.Inst, d.UOps
		// The record grouping must agree with the translation: one record
		// per cracked micro-op, and no more address-carrying records than
		// the flow has memory micro-ops (exporters may legitimately omit
		// addresses, so fewer is fine). A mismatch would silently feed the
		// pipeline a flow whose MemAddrs pair with the wrong micro-ops.
		if nrec := g.hi - g.lo; nrec != len(us) {
			return nil, fmt.Errorf("%w: record %d EIP %#x: %d records for an instruction that cracks into %d micro-ops",
				ErrInconsistent, g.lo, g.eip, nrec, len(us))
		}
		memUops := 0
		for _, u := range us {
			if u.Op.IsMem() {
				memUops++
			}
		}
		if buf = t.groupAddrs(g, buf); len(buf) > memUops {
			return nil, fmt.Errorf("%w: record %d EIP %#x: %d address-carrying records for an instruction with %d memory micro-ops",
				ErrInconsistent, g.lo, g.eip, len(buf), memUops)
		}
		next, ok := t.successor(groups, gi)
		if !ok {
			next = g.eip + uint32(in.Len)
			if g.taken && in.IsBranch() && in.Dst.Kind == x86.KindImm {
				next = in.TargetPC(g.eip)
			}
		}
		rec.Append(e, next, buf)
	}
	return rec, nil
}

// synthRegs are the GPRs the synthesis path rotates through for operand
// assignment — ESP/EBP excluded so synthesized flows don't collide with
// anything stack-shaped the frame heuristics might care about.
var synthRegs = [6]uop.Reg{uop.EAX, uop.EBX, uop.ECX, uop.EDX, uop.ESI, uop.EDI}

func synthReg(eip uint32, salt int) uop.Reg {
	return synthRegs[(uint32(salt)+eip*2654435761)%uint32(len(synthRegs))]
}

// synthSlots fabricates a canonical instruction per group. Per-PC decode
// is first-wins: the first dynamic occurrence of an EIP fixes its
// decode-table entry, so repeated visits share one instruction identity
// (which the frame cache's PC-comparison replay discipline requires).
// The instruction length is chosen so the taken-vs-fallthrough relation
// (NextPC != PC+Len exactly when taken) holds for the observed successor
// pattern.
func (t *Trace) synthSlots(groups []group) *translate.Recording {
	// Pass 1: pick a static Len per PC. A non-taken occurrence fixes it
	// exactly (Len = successor delta); otherwise default to 1, bumping to
	// 2 when a taken successor happens to land on PC+1.
	lens := make(map[uint32]uint32)
	takenNext := make(map[uint32]uint32)
	for gi, g := range groups {
		next, ok := t.successor(groups, gi)
		if !ok {
			continue
		}
		delta := next - g.eip
		if !g.taken {
			if _, ok := lens[g.eip]; !ok && delta >= 1 && delta <= 15 {
				lens[g.eip] = delta
			}
		} else {
			if _, ok := takenNext[g.eip]; !ok {
				takenNext[g.eip] = next
			}
		}
	}
	lenOf := func(eip uint32) uint32 {
		if l, ok := lens[eip]; ok {
			return l
		}
		l := uint32(1)
		if tn, ok := takenNext[eip]; ok && tn == eip+l {
			l = 2
		}
		lens[eip] = l
		return l
	}

	// Pass 2: synthesize the per-PC decode and record the slots. There
	// is no code image, so every entry lives in the table's map.
	tab := translate.NewTable(0, 0)
	rec := translate.NewRecording(tab, len(groups))
	var buf []uint32
	for gi, g := range groups {
		e := tab.Find(g.eip)
		if e < 0 {
			e = tab.Add(t.synthDecode(g, lenOf(g.eip), takenNext[g.eip]))
		}
		next, ok := t.successor(groups, gi)
		if !ok {
			next = g.eip + uint32(tab.Entry(e).Inst.Len)
			if g.taken {
				next = g.eip // any successor != PC+Len keeps the taken relation
			}
		}
		buf = t.groupAddrs(g, buf)
		rec.Append(e, next, buf)
	}
	return rec
}

// synthDecode fabricates the decode-table entry for one PC from its
// first dynamic occurrence.
func (t *Trace) synthDecode(g group, length uint32, takenNext uint32) translate.Entry {
	var us []uop.UOp
	dominant := ClassExec
	for i := g.lo; i < g.hi; i++ {
		r := &t.Records[i]
		salt := i - g.lo
		switch r.Class {
		case ClassLoad:
			us = append(us, uop.UOp{Op: uop.LOAD,
				Dest: synthReg(g.eip, salt), SrcA: synthReg(g.eip, salt+1), SrcB: uop.RegNone})
			if dominant == ClassExec {
				dominant = ClassLoad
			}
		case ClassStore:
			us = append(us, uop.UOp{Op: uop.STORE,
				Dest: uop.RegNone, SrcA: synthReg(g.eip, salt), SrcB: synthReg(g.eip, salt+1)})
			if dominant == ClassExec || dominant == ClassLoad {
				dominant = ClassStore
			}
		case ClassBranch:
			target := takenNext
			if target == 0 {
				target = g.eip + length
			}
			us = append(us, uop.UOp{Op: uop.BR, Cond: x86.CondNE,
				Dest: uop.RegNone, SrcA: uop.RegNone, SrcB: uop.RegNone, Imm: int32(target)})
			dominant = ClassBranch
		case ClassSync:
			us = append(us, uop.UOp{Op: uop.NOP,
				Dest: uop.RegNone, SrcA: uop.RegNone, SrcB: uop.RegNone})
			if dominant == ClassExec && g.hi-g.lo == 1 {
				dominant = ClassSync
			}
		default: // ClassExec
			us = append(us, uop.UOp{Op: uop.ADD, WritesFlags: true,
				Dest: synthReg(g.eip, salt), SrcA: synthReg(g.eip, salt), SrcB: synthReg(g.eip, salt+1)})
		}
	}
	return translate.Entry{PC: g.eip, Inst: synthInst(g.eip, dominant, length, takenNext), UOps: us}
}

// synthInst fabricates the x86-level identity of a synthesized
// instruction. Only its static classification matters (the frame
// constructor reads Op/Cond/Dst.Kind/Len; nothing executes it).
func synthInst(eip uint32, dominant Class, length uint32, takenNext uint32) x86.Inst {
	in := x86.Inst{Cond: x86.CondNone, Len: int(length)}
	a, b := x86.Reg(synthReg(eip, 0)), x86.Reg(synthReg(eip, 1))
	switch dominant {
	case ClassBranch:
		in.Op = x86.OpJCC
		in.Cond = x86.CondNE
		target := takenNext
		if target == 0 {
			target = eip + length
		}
		in.Dst = x86.ImmOp(int32(target - (eip + length)))
	case ClassStore:
		in.Op = x86.OpMOV
		in.Dst = x86.Mem(a, 0)
		in.Src = x86.RegOp(b)
	case ClassLoad:
		in.Op = x86.OpMOV
		in.Dst = x86.RegOp(a)
		in.Src = x86.Mem(b, 0)
	case ClassSync:
		in.Op = x86.OpNOP
	default:
		in.Op = x86.OpADD
		in.Dst = x86.RegOp(a)
		in.Src = x86.RegOp(b)
	}
	return in
}
