package pipeline

import (
	"repro/internal/uop"
	"repro/internal/x86"
)

// traceInst is one instruction of a trace-cache entry.
type traceInst struct {
	PC     uint32
	NextPC uint32 // path successor at fill time
	UOps   []uop.UOp
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
func (e *Engine) fillTrace(s *Slot) {
	f := e.fill
	f.insts = append(f.insts, traceInst{PC: s.PC, NextPC: s.NextPC, UOps: s.UOps})
	f.nuops += len(s.UOps)
	terminate := false
	switch s.Inst.Op {
	case x86.OpJCC:
		f.branches++
		if f.branches >= e.cfg.TraceMaxBranches {
			terminate = true
		}
	case x86.OpRET:
		terminate = true
	case x86.OpJMP, x86.OpCALL:
		if s.Inst.Dst.Kind != x86.KindImm {
			terminate = true
		}
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
	if e.tel.Enabled() {
		start := e.cycle
		defer func() {
			e.tel.TraceFetch(e.telRun, start, e.cycle, tr.StartPC, tr.NumUOps)
		}()
	}
	e.windowStall()
	fetchAt := e.cycle
	e.tick(BinFrame)
	uopsLeft := e.cfg.Width

	for k := 0; k < len(tr.Insts); k++ {
		s, ok := e.peek()
		if !ok || s.PC != tr.Insts[k].PC {
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

		mi := 0
		loads := 0
		var brDone uint64
		for _, u := range s.UOps {
			var addr uint32
			hasAddr := false
			if u.Op.IsMem() {
				if mi < len(s.MemAddrs) {
					addr = s.MemAddrs[mi]
					hasAddr = true
				}
				mi++
			}
			done := e.dispatchDecoded(u, fetchAt, addr, hasAddr)
			if u.Op.IsControl() {
				brDone = done
			}
			if u.Op == uop.LOAD {
				loads++
			}
		}
		e.retireSlot(&s, true, len(s.UOps), loads)
		if e.probe != nil {
			e.probe.SlotRetired(s, true, len(s.UOps))
		}
		e.feedConstructor(&s)

		// Trace-internal control: unlike the decoded path, a correctly
		// predicted taken branch does not end fetch — the target's code is
		// inline in the trace. Fetch stops at mispredictions and where the
		// live path leaves the filled path.
		switch s.Inst.Op {
		case x86.OpJCC:
			e.stats.CondBranches++
			pred := e.gshare.Predict(s.PC)
			actual := s.Taken()
			e.gshare.Update(s.PC, actual)
			if pred != actual {
				e.stats.Mispredicts++
				e.stallUntil(brDone, BinMispred)
				return
			}
		case x86.OpCALL, x86.OpJMP, x86.OpRET:
			if s.Inst.Op == x86.OpCALL {
				e.ras.Push(s.PC + uint32(s.Inst.Len))
			}
			if s.Inst.Op == x86.OpRET {
				if e.ras.Pop() != s.NextPC {
					e.stats.Mispredicts++
					e.stallUntil(brDone, BinMispred)
					return
				}
			} else if s.Inst.Dst.Kind != x86.KindImm {
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
