package pipeline

import (
	"fmt"

	"repro/internal/opt"
	"repro/internal/uop"
)

// ProgramCheck counts the frame-cache entries CheckPrograms verified.
type ProgramCheck struct {
	Entries, Rescheduled int
}

// CheckPrograms makes every frame-cache insert of e verify the entry's
// dispatch program against its optimized frame, reporting mismatches
// through errorf. The program must list exactly the frame's valid ops in
// Iterate order, each with the unit class, latency and flags its opcode
// gives, and each source resolved to the ready-table slot holding what
// its Ref names: the live-in register, the completion time of a producer
// issued earlier, or the zero slot.
func CheckPrograms(e *Engine, errorf func(format string, args ...any)) *ProgramCheck {
	pc := new(ProgramCheck)
	onInsert := e.frames.OnInsert
	e.frames.OnInsert = func(start uint32, size int) {
		onInsert(start, size)
		c, ok := e.frames.Lookup(start) // the new entry is already most recent
		if !ok {
			errorf("frame %#x: inserted entry not found", start)
			return
		}
		pc.Entries++
		if len(c.of.Order) > 0 {
			pc.Rescheduled++
		}
		if err := checkProgram(c); err != nil {
			errorf("frame %#x: %v", start, err)
		}
	}
	return pc
}

// wantClass, wantLatency and wantControl restate the machine's opcode
// tables independently of uop.Op.Class, Latency and DispatchFlags.
func wantClass(op uop.Op) uint8 {
	switch op {
	case uop.MULLO, uop.MULHIU, uop.MULHIS, uop.DIVU, uop.REMU, uop.DIVS, uop.REMS:
		return uop.ClassComplex
	case uop.LOAD, uop.STORE:
		return uop.ClassLSU
	}
	return uop.ClassSimple
}

func wantLatency(op uop.Op) uint8 {
	switch op {
	case uop.MULLO, uop.MULHIU, uop.MULHIS:
		return 4
	case uop.DIVU, uop.REMU, uop.DIVS, uop.REMS:
		return 20
	}
	return 1
}

func checkProgram(c *cachedFrame) error {
	of := c.of
	var order []int32
	of.Iterate(func(i int32, _ *opt.FrameOp) { order = append(order, i) })
	if len(c.prog) != len(order) {
		return fmt.Errorf("program has %d ops, Iterate visits %d", len(c.prog), len(order))
	}
	if len(c.prog) != of.NumValid() || c.validLoads != of.NumValidLoads() {
		return fmt.Errorf("valid ops/loads = %d/%d, NumValid/NumValidLoads = %d/%d",
			len(c.prog), c.validLoads, of.NumValid(), of.NumValidLoads())
	}
	issuedAt := make(map[int32]int32) // buffer index -> ready-table slot
	slot := func(r opt.Ref) int32 {
		switch r.Kind {
		case opt.RefLiveIn:
			return readyLiveIn + int32(r.Arch)
		case opt.RefOp:
			return issuedAt[r.Idx] // 0 unless issued earlier
		}
		return 0
	}
	for p, i := range order {
		o, g := &of.Ops[i], &c.prog[p]
		if !o.Valid {
			return fmt.Errorf("op %d: Iterate visits an invalid op", i)
		}
		control := o.Op.IsControl() || o.Op.IsAssert()
		if g.class != wantClass(o.Op) || g.lat != wantLatency(o.Op) || (g.flags&uop.FlagControl != 0) != control {
			return fmt.Errorf("op %d (%v): class/latency/control %d/%d/%v, want %d/%d/%v",
				i, o.Op, g.class, g.lat, g.flags&uop.FlagControl != 0, wantClass(o.Op), wantLatency(o.Op), control)
		}
		if (g.flags&uop.FlagLoad != 0) != (o.Op == uop.LOAD) || (g.flags&uop.FlagStore != 0) != (o.Op == uop.STORE) {
			return fmt.Errorf("op %d (%v): flags %#x", i, o.Op, g.flags)
		}
		if g.srcA != slot(o.SrcA) || g.srcB != slot(o.SrcB) || g.srcF != slot(o.SrcF) {
			return fmt.Errorf("op %d: sources %d/%d/%d, want %d/%d/%d",
				i, g.srcA, g.srcB, g.srcF, slot(o.SrcA), slot(o.SrcB), slot(o.SrcF))
		}
		if g.instIdx != o.InstIdx || g.memSub != o.MemSub || g.profAddr != o.ProfAddr {
			return fmt.Errorf("op %d: address facts differ", i)
		}
		issuedAt[i] = readyOps + int32(p)
	}
	var want []liveOut
	for r := uop.Reg(0); r < 8; r++ {
		if ref := of.Final[r]; ref.Kind == opt.RefOp && of.Ops[ref.Idx].Valid {
			want = append(want, liveOut{r, issuedAt[ref.Idx]})
		}
	}
	if ref := of.FinalFlags; ref.Kind == opt.RefOp && of.Ops[ref.Idx].Valid {
		want = append(want, liveOut{uop.FLAGS, issuedAt[ref.Idx]})
	}
	if fmt.Sprint(want) != fmt.Sprint(c.liveOuts) {
		return fmt.Errorf("live-outs %v, want %v", c.liveOuts, want)
	}
	return nil
}

// Gshare returns e's gshare predictor, so a test can tell a recycled
// table from a fresh one.
func Gshare(e *Engine) any { return e.gshare }
