package frame

import (
	"testing"

	"repro/internal/uop"
	"repro/internal/x86"
)

// smallFrame builds a loop-shaped frame of n single-uop instructions at
// 4-byte spacing, exiting back to its own start.
func smallFrame(start uint32, n int) *Frame {
	f := &Frame{StartPC: start, ExitPC: start, NumX86: n}
	for i := 0; i < n; i++ {
		pc := start + uint32(4*i)
		next := pc + 4
		if i == n-1 {
			next = start
		}
		f.UOps = append(f.UOps, uop.UOp{Op: uop.ADD, Dest: uop.EAX, SrcA: uop.EAX, SrcB: uop.RegNone, Imm: 1})
		f.InstIdx = append(f.InstIdx, int32(i))
		f.MemSub = append(f.MemSub, -1)
		f.MemAddr = append(f.MemAddr, 0)
		f.PCs = append(f.PCs, pc)
		f.NextPCs = append(f.NextPCs, next)
	}
	return f
}

func TestTruncate(t *testing.T) {
	f := smallFrame(0x1000, 20)
	g := f.Truncate(7)
	if g == nil {
		t.Fatal("truncate returned nil")
	}
	if len(g.UOps) != 7 || g.NumX86 != 7 {
		t.Fatalf("truncated to %d uops / %d insts", len(g.UOps), g.NumX86)
	}
	if g.ExitPC != f.PCs[7] {
		t.Errorf("exit = %#x, want %#x", g.ExitPC, f.PCs[7])
	}
	if len(g.PCs) != 7 || len(g.NextPCs) != 7 || len(g.MemSub) != 7 {
		t.Error("parallel slices inconsistent after truncation")
	}
	// No-op when it already fits.
	if h := f.Truncate(100); h != f {
		t.Error("truncate of fitting frame should return the frame itself")
	}
}

// TestTruncateMultiUOpBoundary: the cut lands on an instruction boundary
// even when instructions have several micro-ops.
func TestTruncateMultiUOpBoundary(t *testing.T) {
	f := &Frame{StartPC: 0x100, ExitPC: 0x200, NumX86: 3}
	// Three instructions of 2, 3, 2 micro-ops.
	shape := []int{2, 3, 2}
	pc := uint32(0x100)
	for i, n := range shape {
		for k := 0; k < n; k++ {
			f.UOps = append(f.UOps, uop.UOp{Op: uop.NOP})
			f.InstIdx = append(f.InstIdx, int32(i))
			f.MemSub = append(f.MemSub, -1)
			f.MemAddr = append(f.MemAddr, 0)
		}
		f.PCs = append(f.PCs, pc)
		f.NextPCs = append(f.NextPCs, pc+4)
		pc += 4
	}
	g := f.Truncate(4) // cuts inside instruction 1 -> keep only inst 0
	if g == nil || g.NumX86 != 1 || len(g.UOps) != 2 {
		t.Fatalf("truncate(4) = %+v", g)
	}
	g = f.Truncate(5) // exactly insts 0+1
	if g == nil || g.NumX86 != 2 || len(g.UOps) != 5 {
		t.Fatalf("truncate(5) = %+v", g)
	}
	if f.Truncate(1) != nil {
		t.Error("truncate below the first instruction should return nil")
	}
}

// TestRetireFrameGrowth: committed frames extend the pending frame until
// the size limit, then deposit one grown frame keyed at the first start.
func TestRetireFrameGrowth(t *testing.T) {
	cfg := DefaultConfig()
	var deposited []*Frame
	c := NewConstructor(cfg, func(f *Frame) { deposited = append(deposited, f) })

	f := smallFrame(0x1000, 20) // 20 uops, self-looping
	for i := 0; i < 30; i++ {
		c.RetireFrame(f, nil)
	}
	if len(deposited) == 0 {
		t.Fatal("growth never deposited")
	}
	g := deposited[0]
	if g.StartPC != 0x1000 {
		t.Errorf("grown frame starts at %#x", g.StartPC)
	}
	if len(g.UOps) <= len(f.UOps) {
		t.Errorf("no growth: %d uops", len(g.UOps))
	}
	if len(g.UOps) > cfg.MaxUOps {
		t.Errorf("grown frame exceeds limit: %d", len(g.UOps))
	}
	// Path bookkeeping remains consistent.
	if len(g.PCs) != g.NumX86 || g.NextPCs[g.NumX86-1] != g.ExitPC {
		t.Error("grown frame path inconsistent")
	}
	for k := 0; k+1 < g.NumX86; k++ {
		if g.NextPCs[k] != g.PCs[k+1] {
			t.Fatalf("grown path discontinuity at %d", k)
		}
	}
}

// TestRetireFrameLargeFrameIdles: a frame already over half the limit
// does not grow (it would overflow immediately).
func TestRetireFrameLargeFrameIdles(t *testing.T) {
	cfg := DefaultConfig()
	var deposited []*Frame
	c := NewConstructor(cfg, func(f *Frame) { deposited = append(deposited, f) })
	big := smallFrame(0x2000, cfg.MaxUOps/2+10)
	for i := 0; i < 10; i++ {
		c.RetireFrame(big, nil)
	}
	if len(deposited) != 0 {
		t.Errorf("near-capacity frame grew: %d deposits", len(deposited))
	}
}

// TestFinishAlignedCutsAtLoopClosure: an overflowing pending frame is cut
// at the last return to its own start.
func TestFinishAlignedCutsAtLoopClosure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinUOps = 4
	var deposited []*Frame
	c := NewConstructor(cfg, func(f *Frame) { deposited = append(deposited, f) })

	// Feed a 10-instruction loop three and a half times via Retire.
	loop := smallFrame(0x3000, 10)
	add := x86.Inst{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(1), Len: 4}
	uops := []uop.UOp{{Op: uop.ADD, Dest: uop.EAX, SrcA: uop.EAX, SrcB: uop.RegNone, Imm: 1}}
	total := 0
	for total < cfg.MaxUOps+5 {
		for k := 0; k < loop.NumX86; k++ {
			retire(c, loop.PCs[k], add, uops, loop.NextPCs[k], nil)
			total++
		}
	}
	if len(deposited) == 0 {
		t.Fatal("no deposit at size limit")
	}
	g := deposited[0]
	if g.ExitPC != g.StartPC {
		t.Errorf("size-limited loop frame not cut at loop closure: start %#x exit %#x",
			g.StartPC, g.ExitPC)
	}
}
