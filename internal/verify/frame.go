package verify

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/frame"
	"repro/internal/opt"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/workload"
	"repro/internal/x86"
)

// FrameCheckStats summarizes an online frame verification run.
type FrameCheckStats struct {
	Insts       int // x86 instructions executed
	Constructed int // frames deposited
	Checked     int // frame executions verified
	Aborted     int // frame executions that aborted (assert/unsafe)
	UOpsIn      int // micro-ops entering the optimizer
	UOpsOut     int // micro-ops surviving optimization
	LoadsIn     int
	LoadsOut    int
}

// CheckFrames runs prog for up to maxInsts instructions with frame
// construction and optimization enabled, and verifies every optimized
// frame execution against the reference interpreter — the paper's second
// State Verifier role:
//
//  1. a frame must abort exactly when the reference path diverges from
//     the frame's construction path (assertions), or on an unsafe-store
//     conflict (spurious but safe);
//  2. a committing frame must produce the reference's register state,
//     flags, and store sequence at the frame boundary.
func CheckFrames(prog *workload.Program, maxInsts int, optsFn func() opt.Options, scope opt.Scope) (FrameCheckStats, error) {
	return checkFrames(prog, maxInsts, optsFn, scope, false)
}

// CheckFramesRescheduled is CheckFrames with the Section 4 position-field
// rescheduling applied to every optimized frame, verifying that the
// scheduled issue order preserves frame semantics.
func CheckFramesRescheduled(prog *workload.Program, maxInsts int, optsFn func() opt.Options, scope opt.Scope) (FrameCheckStats, error) {
	return checkFrames(prog, maxInsts, optsFn, scope, true)
}

func checkFrames(prog *workload.Program, maxInsts int, optsFn func() opt.Options, scope opt.Scope, reschedule bool) (FrameCheckStats, error) {
	var stats FrameCheckStats

	ref := prog.NewCPU()

	frames := make(map[uint32]*opt.OptFrame)
	cons := frame.NewConstructor(frame.DefaultConfig(), func(f *frame.Frame) {
		of := opt.Remap(f, scope)
		s := opt.Optimize(of, optsFn())
		if reschedule {
			opt.Schedule(of)
		}
		stats.UOpsIn += s.UOpsIn
		stats.UOpsOut += s.UOpsOut
		stats.LoadsIn += s.LoadsIn
		stats.LoadsOut += s.LoadsOut
		stats.Constructed++
		if _, dup := frames[f.StartPC]; !dup {
			frames[f.StartPC] = of
		}
	})

	tab := translate.NewTable(prog.Base, len(prog.Code))

	for stats.Insts < maxInsts && !ref.Halted {
		pc := ref.PC
		if of, ok := frames[pc]; ok {
			n, err := checkOneFrame(ref, of, cons, tab, &stats)
			stats.Insts += n
			if err != nil {
				return stats, err
			}
			continue
		}
		d, err := decodeAt(tab, ref, pc)
		if err != nil {
			return stats, err
		}
		rec, err := ref.Step()
		if err != nil {
			return stats, err
		}
		addrs := make([]uint32, 0, len(rec.MemOps))
		for _, m := range rec.MemOps {
			addrs = append(addrs, m.Addr)
		}
		cons.Retire(d, rec.NextPC, addrs)
		stats.Insts++
	}
	return stats, nil
}

// checkOneFrame executes a frame functionally, steps the reference
// through the frame's path, and cross-checks the two. It returns the
// number of reference instructions consumed.
func checkOneFrame(ref *cpu.CPU, of *opt.OptFrame, cons *frame.Constructor, tab *translate.Table, stats *FrameCheckStats) (int, error) {
	src := of.Source
	stats.Checked++

	// Snapshot entry state and execute the frame against live memory
	// (reads only; stores are buffered).
	var entry uop.Regs
	for r := 0; r < 8; r++ {
		entry.Set(uop.Reg(r), ref.Regs[r])
	}
	entry.SetFlags(ref.Flags)
	res, err := opt.Execute(of, &entry, ref.Mem)
	if err != nil {
		return 0, fmt.Errorf("frame %s: %w", src, err)
	}

	// Step the reference along the frame's path, collecting its stores.
	type storeRec struct{ addr, val uint32 }
	var refStores []storeRec
	diverged := -1
	steps := 0
	for k := 0; k < src.NumX86; k++ {
		if ref.PC != src.PCs[k] {
			return steps, fmt.Errorf("frame %s: reference at %#x, path[%d]=%#x", src, ref.PC, k, src.PCs[k])
		}
		pc := ref.PC
		d, err := decodeAt(tab, ref, pc)
		if err != nil {
			return steps, err
		}
		rec, err := ref.Step()
		if err != nil {
			return steps, err
		}
		steps++
		// Retired instructions keep feeding the constructor, as in the
		// real machine where construction watches retirement.
		addrs := make([]uint32, 0, len(rec.MemOps))
		for _, m := range rec.MemOps {
			addrs = append(addrs, m.Addr)
		}
		cons.Retire(d, rec.NextPC, addrs)
		for _, m := range rec.MemOps {
			if m.IsStore {
				refStores = append(refStores, storeRec{m.Addr, m.Data})
			}
		}
		if rec.NextPC != src.NextPCs[k] {
			diverged = k
			break
		}
	}

	if diverged >= 0 {
		// The reference left the frame's path: the frame must have fired
		// an assertion (its InstIdx at or before the divergence point).
		if !res.Aborted {
			return steps, fmt.Errorf("frame %s: path diverged at inst %d but frame committed", src, diverged)
		}
		stats.Aborted++
		return steps, nil
	}
	if res.Aborted {
		// Spurious abort is legal only for unsafe-store conflicts.
		if !res.UnsafeConflict {
			return steps, fmt.Errorf("frame %s: assertion fired on matching path (op %d)", src, res.AbortPos)
		}
		stats.Aborted++
		return steps, nil
	}

	// Committed: registers, flags, and stores must match the reference.
	for r := 0; r < 8; r++ {
		if got, want := res.Regs.Get(uop.Reg(r)), ref.Regs[r]; got != want {
			return steps, fmt.Errorf("frame %s: %s = %#x, reference %#x", src, x86.Reg(r), got, want)
		}
	}
	if got, want := res.Regs.Flags(), ref.Flags&x86.FlagMask; got != want {
		return steps, fmt.Errorf("frame %s: flags %s, reference %s", src, got, want)
	}
	if len(res.Stores) != len(refStores) {
		return steps, fmt.Errorf("frame %s: %d stores, reference %d", src, len(res.Stores), len(refStores))
	}
	for i, st := range res.Stores {
		if st.Addr != refStores[i].addr || st.Val != refStores[i].val {
			return steps, fmt.Errorf("frame %s: store %d = [%#x]=%#x, reference [%#x]=%#x",
				src, i, st.Addr, st.Val, refStores[i].addr, refStores[i].val)
		}
	}
	return steps, nil
}

// decodeAt returns pc's table entry, decoding it from the reference
// CPU's memory on its first visit.
func decodeAt(tab *translate.Table, ref *cpu.CPU, pc uint32) (*translate.Entry, error) {
	i := tab.Find(pc)
	if i < 0 {
		var err error
		if i, err = tab.Decode(pc, ref.Mem.ReadBytes(pc, 15)); err != nil {
			var de *translate.DecodeError
			if errors.As(err, &de) {
				return nil, fmt.Errorf("verify: decode at %#x: %w", pc, de.Err)
			}
			return nil, err
		}
	}
	return tab.Entry(i), nil
}
