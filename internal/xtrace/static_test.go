package xtrace_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/workload"
	"repro/internal/x86"
)

// Frame construction's control kinds as it classified instructions
// before the decode entry carried the kind.
const (
	kindNone = iota
	kindCond
	kindDirect
	kindIndirect
	kindHalt
)

func classify(in x86.Inst) int {
	switch in.Op {
	case x86.OpJCC:
		return kindCond
	case x86.OpJMP, x86.OpCALL:
		if in.Dst.Kind == x86.KindImm {
			return kindDirect
		}
		return kindIndirect
	case x86.OpRET:
		return kindIndirect
	case x86.OpHLT:
		return kindHalt
	}
	return kindNone
}

// kindOf folds an entry's control kind back to classify's.
func kindOf(c translate.Control) int {
	switch {
	case c == translate.CtlNone:
		return kindNone
	case c == translate.CtlCond:
		return kindCond
	case c == translate.CtlHalt:
		return kindHalt
	case c.IsIndirect():
		return kindIndirect
	}
	return kindDirect
}

// wantOp is u's dispatch record as the µop's own accessors state it.
func wantOp(u uop.UOp) translate.DispOp {
	slot := func(uses bool, r uop.Reg) uint8 {
		if !uses {
			return 0
		}
		return translate.ReadyRegs + uint8(r)
	}
	o := translate.DispOp{
		SrcA: slot(u.UsesSrcA(), u.SrcA), SrcB: slot(u.UsesSrcB(), u.SrcB), SrcF: slot(u.ReadsFlags(), uop.FLAGS),
		Dst: translate.ReadySink, DstF: translate.ReadySink,
		Class: u.Op.Class(), Lat: u.Op.Latency(), Flags: u.Op.DispatchFlags(),
	}
	if d := u.DestReg(); d != uop.RegNone {
		o.Dst = translate.ReadyRegs + uint8(d)
	}
	if u.WritesFlags {
		o.DstF = translate.ReadyRegs + uint8(uop.FLAGS)
	}
	return o
}

// checkControl checks an instruction's control kind against classify,
// and the calls and returns the predictors act on against its opcode.
func checkControl(t *testing.T, label string, c translate.Control, in x86.Inst) {
	t.Helper()
	if got, want := kindOf(c), classify(in); got != want {
		t.Errorf("%s %v: control %d folds to kind %d, classify gives %d", label, in, c, got, want)
	}
	if c.IsCall() != (in.Op == x86.OpCALL) || (c == translate.CtlRet) != (in.Op == x86.OpRET) {
		t.Errorf("%s %v: control %d", label, in, c)
	}
}

// checkEntries checks every entry rec's slots reach against the
// accessors its static facts were compiled from, and that each entry's
// ID is its own: one entry per PC, one PC per ID.
func checkEntries(t *testing.T, label string, rec *translate.Recording) {
	t.Helper()
	byPC := map[uint32]*translate.Entry{}
	byID := map[int32]*translate.Entry{}
	for i := range rec.Len() {
		d, _, _ := rec.At(i)
		if e, ok := byPC[d.PC]; ok {
			if e != d {
				t.Fatalf("%s: PC %#x has two entries", label, d.PC)
			}
			continue
		}
		if e, ok := byID[d.ID]; ok {
			t.Fatalf("%s: PCs %#x and %#x share ID %d", label, e.PC, d.PC, d.ID)
		}
		byPC[d.PC], byID[d.ID] = d, d
		checkControl(t, fmt.Sprintf("%s: %#x", label, d.PC), d.Ctl, d.Inst)
		if len(d.Ops) != len(d.UOps) {
			t.Fatalf("%s: %#x: %d ops for %d µops", label, d.PC, len(d.Ops), len(d.UOps))
		}
		loads := 0
		for k, u := range d.UOps {
			if want := wantOp(u); d.Ops[k] != want {
				t.Errorf("%s: %#x µop %d (%v): op %+v, want %+v", label, d.PC, k, u, d.Ops[k], want)
			}
			if u.Op == uop.LOAD {
				loads++
			}
		}
		if int(d.Loads) != loads {
			t.Errorf("%s: %#x: %d loads, want %d", label, d.PC, d.Loads, loads)
		}
	}
}

// TestEntryStaticFacts: every entry of the tables that trace 0 of each
// profile's capture builds, and that xtrace's code-image and
// synthesizing adapters build from its export, carries the facts its
// µops and instruction state.
func TestEntryStaticFacts(t *testing.T) {
	const budget = 40_000
	for _, p := range workload.Profiles {
		xt := exportWorkload(t, p.Name, 0, budget)
		code, err := xt.Recording()
		if err != nil {
			t.Fatal(err)
		}
		xt.Code, xt.CodeBase = nil, 0
		synth, err := xt.Recording()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.Generate(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		capture, err := sim.Capture(prog, budget)
		if err != nil {
			t.Fatal(err)
		}
		checkEntries(t, p.Name+" capture", capture)
		checkEntries(t, p.Name+" code adapter", code)
		checkEntries(t, p.Name+" synth adapter", synth)
	}
	// The transfers no profile's code reaches: every control opcode with
	// each kind of destination.
	for _, op := range []x86.Op{x86.OpJCC, x86.OpJMP, x86.OpCALL, x86.OpRET, x86.OpHLT, x86.OpADD} {
		for _, dst := range []x86.Operand{x86.ImmOp(4), x86.RegOp(x86.EAX), {Kind: x86.KindMem}} {
			in := x86.Inst{Op: op, Dst: dst}
			checkControl(t, "synthetic", translate.ControlOf(&in), in)
		}
	}
}
