package opt

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

// buildCallFrame constructs a frame spanning a CALL, a tiny callee, and
// its RET — the paper's Section 3.3 scenario: "the load of the return
// address in micro-operation 15 is also eliminated ... constant
// propagation from the call site identifies the return jump in 17 as a
// constant target and removes it."
func buildCallFrame(t *testing.T) *frame.Frame {
	t.Helper()
	// 0x1000: CALL f          (5 bytes)
	// 0x1005: ADD EBX, 1      (return site; not part of this frame)
	// f:      ADD EAX, 7
	//         RET
	call := x86.Inst{Op: x86.OpCALL, Cond: x86.CondNone, Dst: x86.ImmOp(0)}
	enc, _ := x86.Encode(call)
	call.Len = len(enc) // 5

	fPC := uint32(0x1000 + 5 + 3) // after CALL and the ADD EBX,1 (3 bytes)
	call.Dst = x86.ImmOp(int32(fPC - 0x1005))
	addEAX := x86.Inst{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(7)}
	enc, _ = x86.Encode(addEAX)
	addEAX.Len = len(enc)
	ret := x86.Inst{Op: x86.OpRET, Cond: x86.CondNone}
	ret.Len = 1

	cfg := frame.DefaultConfig()
	cfg.BiasThreshold = 1
	cfg.TargetThreshold = 1
	cfg.MinUOps = 4
	var out *frame.Frame
	cons := frame.NewConstructor(cfg, func(f *frame.Frame) { out = f })

	const sp = uint32(0x9_0000)
	tab := translate.NewTable(0, 0)
	feed := func(in x86.Inst, pc, next uint32, addrs ...uint32) {
		uops, err := translate.UOps(in, pc)
		if err != nil {
			t.Fatal(err)
		}
		cons.Retire(tab.Entry(tab.Add(translate.Entry{PC: pc, Inst: in, UOps: uops})), next, addrs)
	}
	feed(call, 0x1000, fPC, sp-4)                   // pushes 0x1005
	feed(addEAX, fPC, fPC+uint32(addEAX.Len))       // callee body
	feed(ret, fPC+uint32(addEAX.Len), 0x1005, sp-4) // returns to 0x1005
	cons.Flush()
	if out == nil {
		t.Fatal("no frame")
	}
	return out
}

// TestCallReturnFolding: inside one frame, store forwarding feeds the
// pushed (constant) return address to the RET's load, and constant
// propagation discharges the return-target assertion — leaving no loads
// and no asserts.
func TestCallReturnFolding(t *testing.T) {
	f := buildCallFrame(t)
	of := Remap(f, ScopeFrame)
	st := Optimize(of, AllOptions())

	if n := of.NumValidLoads(); n != 0 {
		for i := range of.Ops {
			if of.Ops[i].Valid {
				t.Logf("  %s", &of.Ops[i])
			}
		}
		t.Errorf("return-address load not eliminated: %d loads (stats %+v)", n, st)
	}
	for i := range of.Ops {
		o := &of.Ops[i]
		if o.Valid && (o.Op == uop.ASSERT || o.Op == uop.CASSERT) {
			t.Errorf("return-target assertion not discharged: op %d %s", i, o)
		}
	}
	// The frame still performs the return-address store (stores are never
	// removed) and the callee's ADD.
	stores, adds := 0, 0
	for i := range of.Ops {
		o := &of.Ops[i]
		if !o.Valid {
			continue
		}
		switch o.Op {
		case uop.STORE:
			stores++
		case uop.ADD:
			adds++
		}
	}
	if stores != 1 {
		t.Errorf("stores = %d, want 1", stores)
	}
	if adds < 1 {
		t.Error("callee ADD missing")
	}

	// Semantics: EAX += 7, ESP unchanged net of call+ret, and the return
	// address was stored.
	regs := &uop.Regs{}
	regs.Set(uop.ESP, 0x9_0000)
	regs.Set(uop.EAX, 100)
	res, err := Execute(of, regs, uop.MapMemory{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("folded frame aborted")
	}
	if got := res.Regs.Get(uop.EAX); got != 107 {
		t.Errorf("EAX = %d, want 107", got)
	}
	if got := res.Regs.Get(uop.ESP); got != 0x9_0000 {
		t.Errorf("ESP = %#x, want %#x", got, 0x9_0000)
	}
	if len(res.Stores) != 1 || res.Stores[0].Val != 0x1005 {
		t.Errorf("stores = %+v, want return address 0x1005", res.Stores)
	}
}

// TestCallReturnKeptWithoutCP: without constant propagation the
// return-target assertion must survive (it cannot be discharged).
func TestCallReturnKeptWithoutCP(t *testing.T) {
	f := buildCallFrame(t)
	of := Remap(f, ScopeFrame)
	opts := AllOptions()
	opts.CP = false
	Optimize(of, opts)
	asserts := 0
	for i := range of.Ops {
		if of.Ops[i].Valid && of.Ops[i].Op.IsAssert() {
			asserts++
		}
	}
	if asserts == 0 {
		t.Error("assertion discharged without constant propagation")
	}
}
