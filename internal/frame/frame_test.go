package frame

import (
	"testing"

	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/workload"
	"repro/internal/x86"
)

func collect(cfg Config) (*Constructor, *[]*Frame) {
	frames := &[]*Frame{}
	c := NewConstructor(cfg, func(f *Frame) { *frames = append(*frames, f) })
	return c, frames
}

// tables holds the one decode table each test constructor's entries
// come from.
var tables = map[*Constructor]*translate.Table{}

// retire feeds c one synthetic instruction through its map-only table,
// where the PC's first retirement makes its entry.
func retire(c *Constructor, pc uint32, in x86.Inst, uops []uop.UOp, next uint32, addrs []uint32) {
	tab := tables[c]
	if tab == nil {
		tab = translate.NewTable(0, 0)
		tables[c] = tab
	}
	i := tab.Find(pc)
	if i < 0 {
		i = tab.Add(translate.Entry{PC: pc, Inst: in, UOps: uops})
	}
	c.Retire(tab.Entry(i), next, addrs)
}

// feedProfile captures a workload trace and runs it through a constructor.
func feedProfile(t *testing.T, name string, insts int, cfg Config) []*Frame {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := prog.Capture(insts)
	if err != nil {
		t.Fatal(err)
	}
	c, frames := collect(cfg)
	if err := FeedTrace(c, tr); err != nil {
		t.Fatal(err)
	}
	return *frames
}

func TestConstructorBasics(t *testing.T) {
	frames := feedProfile(t, "bzip2", 30_000, DefaultConfig())
	if len(frames) == 0 {
		t.Fatal("no frames constructed")
	}
	for _, f := range frames {
		if len(f.UOps) < 8 || len(f.UOps) > 256 {
			t.Errorf("%s: size out of bounds", f)
		}
		if len(f.UOps) != len(f.InstIdx) || len(f.UOps) != len(f.MemAddr) || len(f.UOps) != len(f.MemSub) {
			t.Errorf("%s: parallel slices inconsistent", f)
		}
		if len(f.PCs) != f.NumX86 || len(f.NextPCs) != f.NumX86 {
			t.Errorf("%s: path length %d != NumX86 %d", f, len(f.PCs), f.NumX86)
		}
		if f.PCs[0] != f.StartPC {
			t.Errorf("%s: path starts at %#x", f, f.PCs[0])
		}
		if f.NextPCs[f.NumX86-1] != f.ExitPC {
			t.Errorf("%s: exit mismatch", f)
		}
		// Frames contain no unconverted control flow.
		for i, u := range f.UOps {
			switch u.Op {
			case uop.BR, uop.JR:
				t.Errorf("%s: unconverted %s at %d", f, u.Op, i)
			}
		}
		// Path is contiguous: each instruction's successor is the next
		// path entry.
		for k := 0; k+1 < f.NumX86; k++ {
			if f.NextPCs[k] != f.PCs[k+1] {
				t.Errorf("%s: path discontinuity at %d", f, k)
			}
		}
	}
}

// TestBiasPromotion: an unbiased branch must terminate frames; once the
// bias threshold is reached it must be converted to an assertion.
func TestBiasPromotion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BiasThreshold = 4
	c, frames := collect(cfg)

	// Synthetic feed: a compare + always-taken branch, looped.
	cmp := x86.Inst{Op: x86.OpCMP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(0), Len: 3}
	br := x86.Inst{Op: x86.OpJCC, Cond: x86.CondE, Dst: x86.ImmOp(-5), Len: 2}
	add := x86.Inst{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX), Src: x86.ImmOp(1), Len: 3}
	cmpU := []uop.UOp{{Op: uop.SUB, Dest: uop.RegNone, SrcA: uop.EAX, SrcB: uop.RegNone, Imm: 0, WritesFlags: true}}
	brU := []uop.UOp{{Op: uop.BR, Cond: x86.CondE, Imm: 0x1000}}
	addU := []uop.UOp{{Op: uop.ADD, Dest: uop.EBX, SrcA: uop.EBX, SrcB: uop.RegNone, Imm: 1, WritesFlags: true, KeepCF: true}}

	for i := 0; i < 20; i++ {
		retire(c, 0x1000, add, addU, 0x1003, nil)
		retire(c, 0x1003, cmp, cmpU, 0x1006, nil)
		retire(c, 0x1006, br, brU, 0x1000, nil) // taken every time
	}
	c.Flush()

	if len(*frames) == 0 {
		t.Fatal("no frames")
	}
	// Early iterations end frames at the unbiased branch; later frames
	// must contain ASSERT conversions.
	var sawAssert bool
	for _, f := range *frames {
		for _, u := range f.UOps {
			if u.Op == uop.ASSERT {
				sawAssert = true
				if u.Cond != x86.CondE {
					t.Errorf("assert condition %s, want E", u.Cond)
				}
			}
		}
	}
	if !sawAssert {
		t.Error("biased branch never converted to assertion")
	}
}

// TestBranchStateOneTable: branch state is kept by entry ID, so a
// constructor fed a second table's entry whose ID names another PC's
// branch panics instead of mixing the two branches' state.
func TestBranchStateOneTable(t *testing.T) {
	br := x86.Inst{Op: x86.OpJCC, Cond: x86.CondE, Dst: x86.ImmOp(-5), Len: 2}
	brU := []uop.UOp{{Op: uop.BR, Cond: x86.CondE}}
	c, _ := collect(DefaultConfig())
	var entries []*translate.Entry
	for _, pc := range []uint32{0x1000, 0x2000} {
		tab := translate.NewTable(0, 0)
		entries = append(entries, tab.Entry(tab.Add(translate.Entry{PC: pc, Inst: br, UOps: brU})))
	}
	if entries[0].ID != entries[1].ID {
		t.Fatalf("entry IDs %d and %d; the test needs one ID at two PCs", entries[0].ID, entries[1].ID)
	}
	c.Retire(entries[0], 0x0ffd, nil)
	c.Retire(entries[0], 0x0ffd, nil) // the same entry again is fine
	defer func() {
		if recover() == nil {
			t.Error("an entry of a second table reused another PC's branch state without a panic")
		}
	}()
	c.Retire(entries[1], 0x1ffd, nil)
}

// TestIndirectStability: stable indirect targets become CASSERTs; unstable
// ones terminate frames.
func TestIndirectStability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetThreshold = 3
	c, frames := collect(cfg)

	add := x86.Inst{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX), Src: x86.ImmOp(1), Len: 3}
	addU := []uop.UOp{{Op: uop.ADD, Dest: uop.EBX, SrcA: uop.EBX, SrcB: uop.RegNone, Imm: 1}}
	jr := x86.Inst{Op: x86.OpJMP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EDX), Len: 2}
	jrU := []uop.UOp{{Op: uop.JR, SrcA: uop.EDX}}

	for i := 0; i < 12; i++ {
		for k := 0; k < 4; k++ {
			retire(c, 0x2000+uint32(3*k), add, addU, 0x2000+uint32(3*k)+3, nil)
		}
		retire(c, 0x200C, jr, jrU, 0x2000, nil) // always the same target
	}
	c.Flush()

	var sawCassert bool
	for _, f := range *frames {
		for _, u := range f.UOps {
			if u.Op == uop.CASSERT {
				sawCassert = true
				if uint32(u.Imm) != 0x2000 {
					t.Errorf("CASSERT target %#x", uint32(u.Imm))
				}
				if u.SrcA != uop.EDX {
					t.Errorf("CASSERT source %s", u.SrcA)
				}
			}
		}
	}
	if !sawCassert {
		t.Error("stable indirect never converted to CASSERT")
	}
}

// TestMaxSize: frames never exceed the maximum and split at instruction
// boundaries.
func TestMaxSize(t *testing.T) {
	cfg := Config{MinUOps: 8, MaxUOps: 32, BiasThreshold: 1, TargetThreshold: 1}
	frames := feedProfile(t, "bzip2", 20_000, cfg)
	for _, f := range frames {
		if len(f.UOps) > 32 {
			t.Errorf("%s exceeds max size", f)
		}
	}
}

// TestCoverage: with default parameters, a healthy fraction of retired
// micro-ops should land in frames for a SPEC-like workload.
func TestCoverage(t *testing.T) {
	frames := feedProfile(t, "vortex", 50_000, DefaultConfig())
	total := 0
	for _, f := range frames {
		total += len(f.UOps)
	}
	if total == 0 {
		t.Fatal("no frame coverage at all")
	}
}

// TestLoopUnrolling: a biased loop back-edge lets frames span multiple
// iterations (the paper's source of redundant loads in frames).
func TestLoopUnrolling(t *testing.T) {
	frames := feedProfile(t, "bzip2", 50_000, DefaultConfig())
	maxInsts := 0
	for _, f := range frames {
		if f.NumX86 > maxInsts {
			maxInsts = f.NumX86
		}
	}
	// bzip2's hot loop body is ~50 instructions; frames up to 256 uops
	// should span more than one iteration worth of code.
	if maxInsts < 30 {
		t.Errorf("largest frame only %d x86 instructions; unrolling not happening", maxInsts)
	}
}
