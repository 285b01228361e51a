package pipeline

import "repro/internal/translate"

// traceInst is one instruction of a trace-cache entry.
type traceInst struct {
	PC     uint32
	NextPC uint32 // path successor at fill time
}

// traceEntry is a trace-cache line: a decoded instruction sequence with
// up to TraceMaxBranches conditional branches (the paper's TC
// configuration). Unlike frames, traces are not atomic: embedded branches
// remain real branches, predicted by gshare, and fetch simply stops where
// the live path leaves the trace.
type traceEntry struct {
	StartPC uint32
	Insts   []traceInst
	NumUOps int
}

// traceFill is the TC fill unit, continuously building traces from the
// retired stream.
type traceFill struct {
	insts    []traceInst
	nuops    int
	branches int
}

// fillTrace offers one retired instruction to the fill unit.
func (e *Engine) fillTrace(s *Rec) {
	f := e.fill
	f.insts = append(f.insts, traceInst{PC: s.PC, NextPC: s.NextPC})
	f.nuops += len(s.UOps)
	terminate := s.Ctl.IsIndirect()
	if s.Ctl == translate.CtlCond {
		f.branches++
		terminate = f.branches >= e.cfg.TraceMaxBranches
	}
	if f.nuops >= e.cfg.TraceMaxUOps {
		terminate = true
	}
	if !terminate {
		return
	}
	start := f.insts[0].PC
	if !e.traces.Contains(start) && f.nuops >= 4 {
		entry := &traceEntry{StartPC: start, NumUOps: f.nuops}
		entry.Insts = append(entry.Insts, f.insts...)
		e.traces.Insert(start, f.nuops, entry)
	}
	f.insts = f.insts[:0]
	f.nuops = 0
	f.branches = 0
}

// fetchTraceEntry fetches instructions from a trace-cache line: Width
// micro-ops per cycle, decoded dataflow, stopping where the live path
// diverges from the filled path or at a misprediction.
func (e *Engine) fetchTraceEntry(tr *traceEntry) {
	e.profAt(tr.StartPC) // turnaround + first group belong to the line head
	e.switchTo(srcFC)
	if e.probe != nil {
		start := e.cycle
		defer func() {
			e.probe.TraceFetch(start, e.cycle, tr.StartPC, tr.NumUOps)
		}()
	}
	e.windowStall()
	fetchAt := e.cycle
	e.tick(BinFrame)
	uopsLeft := e.cfg.Width

	for k := 0; k < len(tr.Insts); k++ {
		s := e.peek()
		if s == nil || s.PC != tr.Insts[k].PC {
			return
		}
		// New dispatch groups and mispredict-recovery stalls below are
		// attributed to the instruction that caused them.
		e.profAt(s.PC)
		if len(s.UOps) > uopsLeft {
			e.windowStall()
			fetchAt = e.cycle
			e.tick(BinFrame)
			uopsLeft = e.cfg.Width
		}
		e.next()
		uopsLeft -= len(s.UOps)
		brDone := e.issueSlot(s, fetchAt, true)

		// Trace-internal control: unlike the decoded path, a correctly
		// predicted taken branch does not end fetch — the target's code is
		// inline in the trace. Fetch stops at mispredictions and where the
		// live path leaves the filled path.
		switch s.Ctl {
		case translate.CtlCond:
			e.stats.CondBranches++
			pred := e.gshare.Predict(s.PC)
			actual := s.Taken()
			e.gshare.Update(s.PC, actual)
			if pred != actual {
				e.stats.Mispredicts++
				e.stallUntil(brDone, BinMispred)
				return
			}
		case translate.CtlJump, translate.CtlCall, translate.CtlJumpInd, translate.CtlCallInd, translate.CtlRet:
			if s.Ctl.IsCall() {
				e.ras.Push(s.PC + uint32(s.Inst.Len))
			}
			if s.Ctl == translate.CtlRet {
				if e.ras.Pop() != s.NextPC {
					e.stats.Mispredicts++
					e.stallUntil(brDone, BinMispred)
					return
				}
			} else if s.Ctl.IsIndirect() {
				if tgt, ok := e.btb.Lookup(s.PC); !ok || tgt != s.NextPC {
					e.stats.BTBMisses++
					e.btb.Update(s.PC, s.NextPC)
					e.stallUntil(brDone, BinMispred)
					return
				}
			}
		}
		// Fetch discontinuity: the live path left the filled path.
		if s.NextPC != tr.Insts[k].NextPC {
			return
		}
	}
}
