// Command uopdump shows the reproduction's decode and optimization
// machinery on real bytes: it disassembles IA-32 machine code, prints
// each instruction's micro-op flow, and (with -optimize) builds the
// sequence into a frame and shows the optimizer's before/after — the
// Figure 2 view for arbitrary code.
//
// Usage:
//
//	uopdump -hex "55 8bec 83ec40"          decode + translate hex bytes
//	uopdump -figure2                       the paper's running example
//	uopdump -figure2 -optimize [-scope s]  ... optimized (s: block|inter|frame)
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/frame"
	"repro/internal/opt"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

func main() {
	hexStr := flag.String("hex", "", "IA-32 machine code as hex bytes")
	fig2 := flag.Bool("figure2", false, "use the paper's Figure 2 fragment")
	optimize := flag.Bool("optimize", false, "build a frame and run the optimizer")
	scopeStr := flag.String("scope", "frame", "optimization scope: block, inter, frame")
	base := flag.Uint("base", 0x401000, "code base address")
	flag.Parse()

	if err := run(*hexStr, *fig2, *optimize, *scopeStr, uint32(*base)); err != nil {
		fmt.Fprintln(os.Stderr, "uopdump:", err)
		os.Exit(1)
	}
}

// figure2Code assembles the paper's crafty fragment.
func figure2Code() []byte {
	insts := []x86.Inst{
		{Op: x86.OpPUSH, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBP)},
		{Op: x86.OpPUSH, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX)},
		{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.ECX), Src: x86.Mem(x86.ESP, 0x0C)},
		{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX), Src: x86.Mem(x86.ESP, 0x10)},
		{Op: x86.OpXOR, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.EAX)},
		{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.EDX), Src: x86.RegOp(x86.ECX)},
		{Op: x86.OpOR, Cond: x86.CondNone, Dst: x86.RegOp(x86.EDX), Src: x86.RegOp(x86.EBX)},
		{Op: x86.OpJCC, Cond: x86.CondE, Dst: x86.ImmOp(3)},
		{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(1)},
		{Op: x86.OpPOP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX)},
		{Op: x86.OpPOP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBP)},
		{Op: x86.OpRET, Cond: x86.CondNone},
	}
	var code []byte
	for _, in := range insts {
		enc, err := x86.Encode(in)
		if err != nil {
			panic(err)
		}
		code = append(code, enc...)
	}
	return code
}

func run(hexStr string, fig2, optimize bool, scopeStr string, base uint32) error {
	var code []byte
	switch {
	case fig2:
		code = figure2Code()
	case hexStr != "":
		clean := strings.Map(func(r rune) rune {
			if r == ' ' || r == '\t' || r == '\n' {
				return -1
			}
			return r
		}, hexStr)
		var err error
		code, err = hex.DecodeString(clean)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("provide -hex bytes or -figure2")
	}

	scope := opt.ScopeFrame
	switch scopeStr {
	case "block":
		scope = opt.ScopeIntraBlock
	case "inter":
		scope = opt.ScopeInterBlock
	case "frame":
	default:
		return fmt.Errorf("unknown scope %q", scopeStr)
	}

	// Decode and translate.
	cfg := frame.DefaultConfig()
	cfg.BiasThreshold = 1
	cfg.TargetThreshold = 1
	cfg.MinUOps = 1
	var frames []*frame.Frame
	cons := frame.NewConstructor(cfg, func(f *frame.Frame) { frames = append(frames, f) })

	tab := translate.NewTable(0, 0)
	pc := base
	total := 0
	for int(pc-base) < len(code) {
		i := tab.Find(pc)
		if i < 0 {
			in, err := x86.Decode(code[pc-base:])
			if err != nil {
				return fmt.Errorf("decode at %#x: %w", pc, err)
			}
			uops, err := translate.UOps(in, pc)
			if err != nil {
				return err
			}
			i = tab.Add(translate.Entry{PC: pc, Inst: in, UOps: uops})
		}
		d := tab.Entry(i)
		in, uops := d.Inst, d.UOps
		fmt.Printf("%08x  %-28s", pc, in.String())
		for i, u := range uops {
			if i > 0 {
				fmt.Printf("%38s", "")
			}
			fmt.Printf("  %s\n", u)
		}
		if len(uops) == 0 {
			fmt.Println()
		}
		total += len(uops)

		// Feed the constructor along the fall-through/taken path: taken
		// branches follow their target when it stays inside the buffer.
		next := pc + uint32(in.Len)
		if in.Op == x86.OpJCC || (in.Op == x86.OpJMP && in.Dst.Kind == x86.KindImm) {
			tgt := in.TargetPC(pc)
			if tgt >= base && tgt < base+uint32(len(code)) {
				next = tgt
			}
		}
		if in.Op == x86.OpRET {
			cons.Retire(d, base+uint32(len(code)), nil)
			break
		}
		cons.Retire(d, next, nil)
		pc = next
	}
	cons.Flush()
	fmt.Printf("\n%d micro-ops total\n", total)

	if !optimize {
		return nil
	}
	if len(frames) == 0 {
		return fmt.Errorf("no frame constructed")
	}
	f := frames[0]
	of := opt.Remap(f, scope)
	st := opt.Optimize(of, opt.AllOptions())
	fmt.Printf("\noptimized at %s scope: %d -> %d micro-ops (loads %d -> %d)\n",
		scope, st.UOpsIn, st.UOpsOut, st.LoadsIn, st.LoadsOut)
	fmt.Printf("passes: nop=%d cp=%d ra=%d cse=%d cseload=%d sf=%d asst=%d dce=%d\n\n",
		st.RemovedNOP, st.FoldedCP, st.Reassoc, st.CSEVals, st.CSELoads, st.SFLoads,
		st.FusedAsserts, st.RemovedDCE)
	for i := range of.Ops {
		o := &of.Ops[i]
		if o.Valid {
			fmt.Printf("  %2d  %s\n", i, renderOp(o))
		}
	}
	return nil
}

func renderOp(o *opt.FrameOp) string {
	s := o.String()
	if o.Op == uop.LOAD || o.Op == uop.STORE {
		s += " (mem)"
	}
	return s
}
