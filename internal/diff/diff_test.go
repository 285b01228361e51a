package diff

import (
	"testing"

	"repro/internal/noise"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/uop"
	"repro/internal/x86"
)

// slot builds one synthetic retired instruction: a 4-byte instruction
// at pc with dynamic successor next and the given micro-op flow.
func slot(pc, next uint32, op x86.Op, uops ...uop.Op) pipeline.Slot {
	us := make([]uop.UOp, len(uops))
	for i, o := range uops {
		us[i] = uop.UOp{Op: o}
	}
	return pipeline.Slot{PC: pc, Inst: x86.Inst{Op: op, Len: 4}, NextPC: next, UOps: us}
}

// loopStream is 2 straight instructions, then trips executions of a
// 3-instruction loop body at 0x10..0x18, then 2 straight instructions.
func loopStream(trips int) []pipeline.Slot {
	var slots []pipeline.Slot
	slots = append(slots,
		slot(0x0, 0x4, x86.OpADD, uop.ADD),
		slot(0x4, 0x10, x86.OpADD, uop.ADD))
	for t := 0; t < trips; t++ {
		next := uint32(0x10)
		if t == trips-1 {
			next = 0x1c
		}
		slots = append(slots,
			slot(0x10, 0x14, x86.OpADD, uop.ADD),
			slot(0x14, 0x18, x86.OpMOV, uop.LOAD),
			slot(0x18, next, x86.OpJCC, uop.BR))
	}
	slots = append(slots,
		slot(0x1c, 0x20, x86.OpADD, uop.ADD),
		slot(0x20, 0x24, x86.OpADD, uop.ADD))
	return slots
}

// TestDetectorPartition pins the exact-partition property on a
// synthetic stream: every retired instruction, charged cycle, and pass
// invocation lands in exactly one row, so the folded rows re-sum to
// the fed totals, and events observed while the loop is active land in
// the loop's row rather than the straight pseudo-row.
func TestDetectorPartition(t *testing.T) {
	c := NewCollector()
	var loops reuse.LoopStack
	p, done := c.Attach(0, &loops)
	slots := loopStream(5)
	var inLoop bool
	for i := range slots {
		loops.Retire(&slots[i])
		p.SlotRetired(slots[i], false, len(slots[i].UOps))
		// One cycle charged per instruction; one pass invocation fired
		// mid-loop and one in the straight epilogue.
		p.CycleCharge(slots[i].PC, pipeline.BinFrame, 1)
		if _, ok := loops.Active(); ok && !inLoop {
			inLoop = true
			p.Pass("dce", 3, 1)
			p.OptRemoved(3)
		}
	}
	p.Pass("nop", 2, 0)
	p.OptRemoved(2)
	done()

	prof := c.Snapshot()
	total := uint64(len(slots))
	if prof.X86 != total || prof.UOps != total || prof.Cycles != total {
		t.Fatalf("totals x86=%d uops=%d cycles=%d, want all %d",
			prof.X86, prof.UOps, prof.Cycles, total)
	}
	if prof.OptRemoved != 5 || prof.Passes["dce"].Killed != 3 || prof.Passes["nop"].Killed != 2 {
		t.Fatalf("pass totals: removed=%d passes=%+v", prof.OptRemoved, prof.Passes)
	}

	var loopRow, straightRow *Row
	var sum Row
	for i := range prof.Rows {
		r := &prof.Rows[i]
		sum.add(r)
		switch {
		case r.Straight:
			straightRow = r
		case r.Header == 0x10:
			loopRow = r
		default:
			t.Fatalf("unexpected row %+v", r)
		}
	}
	if loopRow == nil || straightRow == nil {
		t.Fatalf("expected a loop row and a straight row, got %+v", prof.Rows)
	}
	// Rows partition the stream: their sums equal the totals exactly.
	if sum.X86 != prof.X86 || sum.Cycles != prof.Cycles || sum.OptRemoved != prof.OptRemoved {
		t.Fatalf("row sums (%d, %d, %d) != totals (%d, %d, %d)",
			sum.X86, sum.Cycles, sum.OptRemoved, prof.X86, prof.Cycles, prof.OptRemoved)
	}
	// The mid-loop pass landed in the loop row, the epilogue pass in the
	// straight row; per row the opt invariant holds.
	if loopRow.Passes["dce"].Killed != 3 || loopRow.OptRemoved != 3 {
		t.Errorf("loop row: %+v", loopRow)
	}
	if straightRow.Passes["nop"].Killed != 2 || straightRow.OptRemoved != 2 {
		t.Errorf("straight row: %+v", straightRow)
	}
	if loopRow.Tail != 0x18 {
		t.Errorf("loop tail = %#x, want 0x18", loopRow.Tail)
	}
	// The loop was active for trips 2..5 (detection fires at the first
	// back edge), so its row holds a strict, nonzero subset.
	if loopRow.X86 == 0 || loopRow.X86 >= total {
		t.Errorf("loop row x86 = %d, want in (0, %d)", loopRow.X86, total)
	}
}

// mkStats builds a pipeline.Stats whose diffed counters match a profile.
func mkStats(cycles, removed uint64) pipeline.Stats {
	var s pipeline.Stats
	s.Cycles = cycles
	s.Opt = opt.Stats{UOpsIn: int(removed), UOpsOut: 0}
	return s
}

// TestCompareJoinAndResiduals: rows present on only one side zero-fill
// into the union join, per-loop deltas sum exactly to the Stats-counter
// deltas (residual zero), and a counter drift shows up as a nonzero
// residual rather than being silently absorbed.
func TestCompareJoinAndResiduals(t *testing.T) {
	base := RunSide{Label: "base", Runs: []pipeline.Stats{mkStats(100, 10)}, Profile: Profile{
		Rows: []Row{
			{Trace: 0, Header: 0x10, Cycles: 60, OptRemoved: 10,
				Passes: map[string]PassCount{"dce": {Calls: 1, Killed: 10}}},
			{Trace: 0, Straight: true, Cycles: 40},
		},
	}}
	vari := RunSide{Label: "var", Runs: []pipeline.Stats{mkStats(80, 4)}, Profile: Profile{
		Rows: []Row{
			{Trace: 0, Header: 0x10, Cycles: 30, OptRemoved: 4,
				Passes: map[string]PassCount{"dce": {Calls: 1, Killed: 4}}},
			{Trace: 0, Header: 0x40, Cycles: 10},
			{Trace: 0, Straight: true, Cycles: 40},
		},
	}}
	r := Compare(base, vari)
	if r.ResidualCycles != 0 || r.ResidualUOpsRemoved != 0 {
		t.Fatalf("residuals (%d, %d), want (0, 0)", r.ResidualCycles, r.ResidualUOpsRemoved)
	}
	if len(r.Loops) != 3 {
		t.Fatalf("joined %d rows, want 3 (union)", len(r.Loops))
	}
	// Sorted by |DCycles| desc: 0x10 moved 30, 0x40 moved 10, straight 0.
	if r.Loops[0].Header != 0x10 || r.Loops[1].Header != 0x40 || !r.Loops[2].Straight {
		t.Fatalf("loop order: %+v", r.Loops)
	}
	if r.Loops[1].BaseCycles != 0 || r.Loops[1].DCycles != 10 {
		t.Errorf("one-sided row not zero-filled: %+v", r.Loops[1])
	}
	if len(r.Passes) != 1 || r.Passes[0].Pass != "dce" || r.Passes[0].DKilled != -6 {
		t.Errorf("pass deltas: %+v", r.Passes)
	}
	if r.Baseline.Cycles != 100 || r.Variant.Cycles != 80 {
		t.Errorf("summaries: %+v / %+v", r.Baseline, r.Variant)
	}

	// Drift: claim the variant run used 81 cycles while its rows still
	// sum to 80 — the residual must expose the missing cycle.
	vari.Runs[0].Cycles = 81
	r = Compare(base, vari)
	if r.ResidualCycles != 1 {
		t.Fatalf("drifted residual = %d, want 1", r.ResidualCycles)
	}
}

// TestCompareVerdicts: the significance gate is direction-aware and
// the 2×SEM bound suppresses within-noise deltas.
func TestCompareVerdicts(t *testing.T) {
	mk := func(cycles ...uint64) []pipeline.Stats {
		out := make([]pipeline.Stats, len(cycles))
		for i, c := range cycles {
			out[i] = mkStats(c, 0)
			out[i].X86Retired = 1000 // nonzero IPC denominatorless metric
		}
		return out
	}
	find := func(r *Report, name string) MetricDelta {
		for _, m := range r.Metrics {
			if m.Name == name {
				return m
			}
		}
		t.Fatalf("metric %s missing", name)
		return MetricDelta{}
	}

	// Tight repeats, big separation: cycles (lower-better) regressed.
	r := Compare(
		RunSide{Runs: mk(100, 101, 99)},
		RunSide{Runs: mk(200, 201, 199)},
	)
	if m := find(r, "cycles"); m.Verdict != noise.VerdictRegressed || m.Noise <= 0 {
		t.Errorf("cycles verdict %+v, want regressed with bound", m)
	}
	if r.SignificantRegressions == 0 {
		t.Errorf("no significant regressions counted: %+v", r.Metrics)
	}

	// Overlapping noisy repeats: the same mean shift gates to noise.
	r = Compare(
		RunSide{Runs: mk(100, 300, 200)},
		RunSide{Runs: mk(150, 350, 250)},
	)
	if m := find(r, "cycles"); m.Verdict != noise.VerdictNoise {
		t.Errorf("noisy cycles verdict %+v, want noise", m)
	}

	// Improvement direction: fewer cycles is better.
	r = Compare(
		RunSide{Runs: mk(200, 201, 199)},
		RunSide{Runs: mk(100, 101, 99)},
	)
	if m := find(r, "cycles"); m.Verdict != noise.VerdictImproved {
		t.Errorf("cycles verdict %+v, want improved", m)
	}
	if r.SignificantImprovements == 0 {
		t.Errorf("no significant improvements counted")
	}
}
