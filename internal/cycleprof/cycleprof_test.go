package cycleprof

import (
	"bytes"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/translate"
	"repro/internal/x86"
)

// slot fabricates a retired-instruction record: a 2-byte JCC at pc
// jumping to next (taken if next != pc+2).
func slot(pc, next uint32) pipeline.Rec {
	return pipeline.Rec{Entry: &translate.Entry{PC: pc, Ctl: translate.CtlCond, Inst: x86.Inst{Op: x86.OpJCC, Len: 2}}, NextPC: next}
}

// attached is one collector probe over its own loop stack, fed the way
// an engine's probe list feeds it.
type attached struct {
	pipeline.Probe
	loops reuse.LoopStack
	done  func()
}

func attach(c *Collector, trace int) *attached {
	a := &attached{}
	a.Probe, a.done = c.Attach("", trace, &a.loops)
	return a
}

func (a *attached) retire(s pipeline.Rec) {
	a.loops.Retire(&s)
	a.SlotRetired(&s, false, 1)
}

func TestCollectorFoldAndTotals(t *testing.T) {
	c := NewCollector()
	p0 := attach(c, 0)
	p0.CycleCharge(0x10, pipeline.BinICache, 3)
	p0.CycleCharge(0x10, pipeline.BinMispred, 5)
	p0.CycleCharge(0x20, pipeline.BinICache, 2)
	p0.done()
	p1 := attach(c, 1)
	p1.CycleCharge(0x10, pipeline.BinFrame, 7)
	p1.done()
	p1.done() // idempotent: a second fold must not double-count

	r := c.Snapshot()
	if r.Cycles != 17 {
		t.Fatalf("total cycles = %d, want 17", r.Cycles)
	}
	if r.Bins[pipeline.BinICache] != 5 || r.Bins[pipeline.BinMispred] != 5 || r.Bins[pipeline.BinFrame] != 7 {
		t.Fatalf("bin totals = %v", r.Bins)
	}
	if len(r.PCs) != 3 {
		t.Fatalf("PC rows = %d, want 3 (same PC in two traces stays distinct)", len(r.PCs))
	}
	// Sorted by (trace, pc).
	want := []struct {
		trace int
		pc    uint32
	}{{0, 0x10}, {0, 0x20}, {1, 0x10}}
	for i, w := range want {
		if r.PCs[i].Trace != w.trace || r.PCs[i].PC != w.pc {
			t.Fatalf("row %d = t%d:%#x, want t%d:%#x", i, r.PCs[i].Trace, r.PCs[i].PC, w.trace, w.pc)
		}
	}
	var sum uint64
	for i := range r.PCs {
		sum += r.PCs[i].Cycles
	}
	if sum != r.Cycles {
		t.Fatalf("per-PC sum %d != total %d", sum, r.Cycles)
	}
}

func TestLoopJoinInclusive(t *testing.T) {
	c := NewCollector()
	p := attach(c, 0)
	// Inner loop 0x20..0x28 nested in outer 0x10..0x30: two inner back
	// edges per outer iteration, two outer iterations.
	for outer := 0; outer < 2; outer++ {
		for inner := 0; inner < 2; inner++ {
			p.retire(slot(0x28, 0x20)) // inner back edge
		}
		p.retire(slot(0x30, 0x10)) // outer back edge
	}
	p.CycleCharge(0x24, pipeline.BinICache, 10) // inside both loops
	p.CycleCharge(0x12, pipeline.BinICache, 4)  // outer only
	p.CycleCharge(0x40, pipeline.BinICache, 1)  // outside both
	p.done()

	r := c.Snapshot()
	if len(r.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(r.Loops))
	}
	byHeader := map[uint32]LoopCycles{}
	for _, l := range r.Loops {
		byHeader[l.Header] = l
	}
	outer, ok := byHeader[0x10]
	if !ok {
		t.Fatalf("no outer loop @0x10 in %+v", r.Loops)
	}
	inner, ok := byHeader[0x20]
	if !ok {
		t.Fatalf("no inner loop @0x20 in %+v", r.Loops)
	}
	// Inclusive semantics: the outer rollup contains the inner loop's
	// cycles; the stray PC at 0x40 lands in neither.
	if outer.Cycles != 14 {
		t.Fatalf("outer cycles = %d, want 14", outer.Cycles)
	}
	if inner.Cycles != 10 {
		t.Fatalf("inner cycles = %d, want 10", inner.Cycles)
	}
	// Heaviest loop first.
	if r.Loops[0].Header != 0x10 {
		t.Fatalf("loops not sorted by cycles desc: %+v", r.Loops)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	c := NewCollector()
	p := attach(c, 0)
	p.retire(slot(0x28, 0x20))
	p.CycleCharge(0x24, pipeline.BinICache, 100)
	p.CycleCharge(0x24, pipeline.BinMispred, 23)
	p.CycleCharge(0x50, pipeline.BinFrame, 7)
	p.done()
	r := c.Snapshot()

	data, err := Profile([]NamedReport{{Name: "wl", Report: &r}})
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	samples, total, err := ProfileTotal(data)
	if err != nil {
		t.Fatalf("ProfileTotal: %v", err)
	}
	if total != r.Cycles {
		t.Fatalf("pprof total = %d, want %d (conservation at the export surface)", total, r.Cycles)
	}
	// One sample per nonzero (PC, bin) cell: 0x24 has two, 0x50 one,
	// and the back-edge PC 0x28 has none (retired work, no charge).
	if samples != 3 {
		t.Fatalf("samples = %d, want 3", samples)
	}

	// Deterministic output for identical input (map iteration must not
	// leak into the encoding).
	again, err := Profile([]NamedReport{{Name: "wl", Report: &r}})
	if err != nil {
		t.Fatalf("Profile again: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("profile encoding is not deterministic")
	}
}

func TestFlameText(t *testing.T) {
	c := NewCollector()
	p := attach(c, 0)
	p.retire(slot(0x28, 0x20)) // loop 0x20..0x28
	p.CycleCharge(0x24, pipeline.BinICache, 9)
	p.CycleCharge(0x40, pipeline.BinStall, 2)
	p.done()
	r := c.Snapshot()

	got := string(FlameText([]NamedReport{{Name: "wl", Report: &r}}))
	want := "wl;loop@t0:0x0020;t0:0x0024;icache 9\nwl;t0:0x0040;stall 2\n"
	if got != want {
		t.Fatalf("flame text:\n%q\nwant:\n%q", got, want)
	}
}

func TestReportHelpers(t *testing.T) {
	r := Report{Cycles: 10}
	r.Bins[pipeline.BinMispred] = 4
	if f := r.BinFrac(pipeline.BinMispred); f != 0.4 {
		t.Fatalf("BinFrac = %v, want 0.4", f)
	}
	l := LoopCycles{Cycles: 8, X86: 4, UOps: 10, Covered: 5}
	if l.IPC() != 0.5 {
		t.Fatalf("IPC = %v", l.IPC())
	}
	if l.CoverFrac() != 0.5 {
		t.Fatalf("CoverFrac = %v", l.CoverFrac())
	}
	r.PCs = []PCStat{
		{Trace: 0, PC: 1, Cycles: 1},
		{Trace: 0, PC: 2, Cycles: 9},
	}
	top := r.TopPCs(1)
	if len(top) != 1 || top[0].PC != 2 {
		t.Fatalf("TopPCs = %+v", top)
	}
}
