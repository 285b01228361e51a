// Optscope walks through the paper's running example (Figure 2): the
// two-basic-block procedure fragment from crafty, decoded to 17
// micro-operations, then optimized at intra-block, inter-block, and
// frame-level scope. The paper's counts — 13, 12, and 10 surviving
// micro-ops — reproduce exactly.
package main

import (
	"fmt"
	"log"

	"repro/internal/frame"
	"repro/internal/opt"
	"repro/internal/translate"
	"repro/internal/x86"
)

// The fragment of Figure 2, laid out at 0x1000. The JZ is dynamically
// biased taken (the paper: "jump is typically taken"); the RET's target
// is stable.
var insts = []x86.Inst{
	{Op: x86.OpPUSH, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBP)},
	{Op: x86.OpPUSH, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX)},
	{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.ECX), Src: x86.Mem(x86.ESP, 0x0C)},
	{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX), Src: x86.Mem(x86.ESP, 0x10)},
	{Op: x86.OpXOR, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.EAX)},
	{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.EDX), Src: x86.RegOp(x86.ECX)},
	{Op: x86.OpOR, Cond: x86.CondNone, Dst: x86.RegOp(x86.EDX), Src: x86.RegOp(x86.EBX)},
	{Op: x86.OpJCC, Cond: x86.CondE, Dst: x86.ImmOp(3)},
	{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(1)}, // skipped
	{Op: x86.OpPOP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX)},
	{Op: x86.OpPOP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBP)},
	{Op: x86.OpRET, Cond: x86.CondNone},
}

const skipped = 8

func buildFrame() (*frame.Frame, error) {
	pc := uint32(0x1000)
	pcs := make([]uint32, len(insts))
	for i := range insts {
		enc, err := x86.Encode(insts[i])
		if err != nil {
			return nil, err
		}
		insts[i].Len = len(enc)
		pcs[i] = pc
		pc += uint32(len(enc))
	}

	const entrySP = uint32(0x8_0000)
	const retAddr = uint32(0x4000)

	cfg := frame.DefaultConfig()
	cfg.BiasThreshold = 1
	cfg.TargetThreshold = 1
	var out *frame.Frame
	cons := frame.NewConstructor(cfg, func(f *frame.Frame) { out = f })

	tab := translate.NewTable(0, 0)
	esp := entrySP
	for i, in := range insts {
		if i == skipped {
			continue
		}
		uops, err := translate.UOps(in, pcs[i])
		if err != nil {
			return nil, err
		}
		next := pcs[i] + uint32(in.Len)
		var addrs []uint32
		switch i {
		case 0, 1:
			addrs = []uint32{esp - 4}
			esp -= 4
		case 2:
			addrs = []uint32{esp + 0x0C}
		case 3:
			addrs = []uint32{esp + 0x10}
		case 7:
			next = in.TargetPC(pcs[i])
		case 9, 10, 11:
			addrs = []uint32{esp}
			esp += 4
			if i == 11 {
				next = retAddr
			}
		}
		cons.Retire(tab.Entry(tab.Add(translate.Entry{PC: pcs[i], Inst: in, UOps: uops})), next, addrs)
	}
	cons.Flush()
	return out, nil
}

func main() {
	f, err := buildFrame()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("unoptimized frame: %d micro-ops, %d loads (paper: 17, 5)\n\n", len(f.UOps), f.NumLoads())
	for i, u := range f.UOps {
		fmt.Printf("  %2d  %s\n", i+1, u)
	}

	for _, scope := range []opt.Scope{opt.ScopeIntraBlock, opt.ScopeInterBlock, opt.ScopeFrame} {
		g, err := buildFrame()
		if err != nil {
			log.Fatal(err)
		}
		of := opt.Remap(g, scope)
		st := opt.Optimize(of, opt.AllOptions())
		fmt.Printf("\n=== %s optimization: %d micro-ops, %d loads ===\n",
			scope, of.NumValid(), of.NumValidLoads())
		fmt.Printf("    (paper: intra-block 13, inter-block 12, frame-level 10)\n")
		fmt.Printf("    passes: ra=%d sf=%d cse=%d dce=%d\n", st.Reassoc, st.SFLoads, st.CSEVals+st.CSELoads, st.RemovedDCE)
		for i := range of.Ops {
			if of.Ops[i].Valid {
				fmt.Printf("  %2d  %s\n", i+1, &of.Ops[i])
			}
		}
	}
}
