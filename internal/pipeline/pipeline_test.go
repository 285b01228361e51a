package pipeline

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/translate"
	"repro/internal/x86"
)

// sliceStream serves a precomputed slot sequence.
type sliceStream struct {
	slots []Slot
	pos   int
}

func (s *sliceStream) Next() (Slot, bool) {
	if s.pos >= len(s.slots) {
		return Slot{}, false
	}
	sl := s.slots[s.pos]
	s.pos++
	return sl, true
}

// slotFor builds a consistent Slot for an instruction at pc with the
// given dynamic successor.
func slotFor(t *testing.T, in x86.Inst, pc, next uint32, addrs ...uint32) Slot {
	t.Helper()
	enc, err := x86.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Len = len(enc)
	us, err := translate.UOps(in, pc)
	if err != nil {
		t.Fatal(err)
	}
	if next == 0 {
		next = pc + uint32(in.Len)
	}
	return Slot{PC: pc, Inst: in, UOps: us, NextPC: next, MemAddrs: addrs}
}

// loopStream builds a simple counted loop: eight ADDs, a CMP, and a
// backward JNE taken (iters-1) times. flipEvery > 0 makes the branch take
// the opposite (fall-through) direction every flipEvery-th iteration, so
// frames covering it abort.
func loopStream(t *testing.T, iters, flipEvery int) *sliceStream {
	t.Helper()
	adds := []x86.Inst{}
	regs := []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.ESI, x86.EDI, x86.EAX, x86.ECX}
	for _, r := range regs {
		adds = append(adds, x86.Inst{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(r), Src: x86.ImmOp(1)})
	}
	cmp := x86.Inst{Op: x86.OpCMP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(0)}
	// Layout.
	base := uint32(0x1000)
	pcs := make([]uint32, 0, len(adds)+2)
	pc := base
	for i := range adds {
		enc, _ := x86.Encode(adds[i])
		pcs = append(pcs, pc)
		pc += uint32(len(enc))
	}
	encCmp, _ := x86.Encode(cmp)
	cmpPC := pc
	pc += uint32(len(encCmp))
	brPC := pc
	br := x86.Inst{Op: x86.OpJCC, Cond: x86.CondNE, Dst: x86.ImmOp(int32(base) - int32(brPC) - 2)}
	encBr, _ := x86.Encode(br)
	if len(encBr) != 2 {
		t.Fatalf("branch encoding length %d", len(encBr))
	}
	fallPC := brPC + 2

	s := &sliceStream{}
	for it := 0; it < iters; it++ {
		for i, in := range adds {
			s.slots = append(s.slots, slotFor(t, in, pcs[i], 0))
		}
		s.slots = append(s.slots, slotFor(t, cmp, cmpPC, 0))
		taken := it != iters-1
		if flipEvery > 0 && it%flipEvery == flipEvery-1 {
			taken = false
		}
		next := base
		if !taken {
			next = fallPC
		}
		s.slots = append(s.slots, slotFor(t, br, brPC, next))
		if !taken && it != iters-1 {
			// Fall-through block jumps back to the loop head.
			jmp := x86.Inst{Op: x86.OpJMP, Cond: x86.CondNone, Dst: x86.ImmOp(int32(base) - int32(fallPC) - 5)}
			s.slots = append(s.slots, slotFor(t, jmp, fallPC, base))
		}
	}
	return s
}

func TestICachePathRetiresAll(t *testing.T) {
	src := loopStream(t, 50, 0)
	total := uint64(len(src.slots))
	eng := New(DefaultConfig(ModeICache), ModeICache, src)
	got := eng.Run(1 << 20)
	if got != total {
		t.Fatalf("retired %d of %d", got, total)
	}
	s := eng.Stats()
	var binned uint64
	for b := Bin(0); b < NumBins; b++ {
		binned += s.Bins[b]
	}
	if binned != s.Cycles {
		t.Errorf("bins %d != cycles %d", binned, s.Cycles)
	}
	if s.Bins[BinFrame] != 0 || s.FrameFetches != 0 {
		t.Error("IC mode fetched frames")
	}
	if s.UOpsRetired != s.UOpsBaseline {
		t.Error("IC mode shows micro-op reduction")
	}
}

func TestFrameFormationAndCommit(t *testing.T) {
	src := loopStream(t, 400, 0)
	eng := New(DefaultConfig(ModeRePLay), ModeRePLay, src)
	eng.Run(1 << 20)
	s := eng.Stats()
	if s.FramesConstructed == 0 {
		t.Fatal("no frames constructed")
	}
	if s.FrameCommits == 0 {
		t.Fatal("no frames committed")
	}
	if s.FrameCoverage() < 0.5 {
		t.Errorf("coverage %.2f too low for a perfectly biased loop", s.FrameCoverage())
	}
	// The loop's final-iteration exit may fire one assert; anything more
	// would indicate spurious aborts on a perfectly biased loop.
	if s.FrameAborts > 1 {
		t.Errorf("aborts on a stable loop: %d", s.FrameAborts)
	}
}

func TestAssertAbortAndRecovery(t *testing.T) {
	src := loopStream(t, 600, 50)
	total := uint64(len(src.slots))
	eng := New(DefaultConfig(ModeRePLay), ModeRePLay, src)
	got := eng.Run(1 << 20)
	if got != total {
		t.Fatalf("retired %d of %d — aborted instructions must re-execute exactly once", got, total)
	}
	s := eng.Stats()
	if s.FrameAborts == 0 {
		t.Error("no aborts despite periodic contrary branch")
	}
	if s.Bins[BinAssert] == 0 {
		t.Error("no assert cycles charged")
	}
}

func TestOptimizerReducesUOps(t *testing.T) {
	// The loop's ADDs to the same register chain; reassociation collapses
	// them inside frames, so RPO must retire fewer micro-ops.
	src := loopStream(t, 400, 0)
	eng := New(DefaultConfig(ModeRePLayOpt), ModeRePLayOpt, src)
	eng.Run(1 << 20)
	s := eng.Stats()
	if s.UOpReduction() <= 0 {
		t.Errorf("no reduction: %.3f", s.UOpReduction())
	}
	if s.FramesOptimized == 0 {
		t.Error("no frames optimized")
	}
}

func TestOptimizerLatencyDelaysFrames(t *testing.T) {
	mk := func(cyclesPerUOp int) Stats {
		src := loopStream(t, 400, 0)
		cfg := DefaultConfig(ModeRePLayOpt)
		cfg.OptCyclesPerUOp = cyclesPerUOp
		eng := New(cfg, ModeRePLayOpt, src)
		eng.Run(1 << 20)
		return eng.Stats()
	}
	fast := mk(1)
	slow := mk(2000)
	if slow.CoveredBaseline >= fast.CoveredBaseline {
		t.Errorf("slow optimizer should reduce frame coverage: fast=%d slow=%d",
			fast.CoveredBaseline, slow.CoveredBaseline)
	}
}

func TestWaitCyclesOnSwitch(t *testing.T) {
	// Periodic contrary branches force frame<->icache alternation.
	src := loopStream(t, 600, 10)
	eng := New(DefaultConfig(ModeRePLay), ModeRePLay, src)
	eng.Run(1 << 20)
	s := eng.Stats()
	if s.FrameCommits > 0 && s.Bins[BinWait] == 0 {
		t.Error("no wait cycles despite cache switching")
	}
}

func TestTraceCacheMode(t *testing.T) {
	src := loopStream(t, 400, 0)
	eng := New(DefaultConfig(ModeTraceCache), ModeTraceCache, src)
	eng.Run(1 << 20)
	s := eng.Stats()
	if s.Bins[BinFrame] == 0 {
		t.Error("trace cache never supplied fetch")
	}
	if s.UOpsRetired != s.UOpsBaseline {
		t.Error("TC mode shows micro-op reduction")
	}
}

func TestDecodeTemplate(t *testing.T) {
	// A stream of multi-uop instructions (PUSH = 2 uops) is limited to one
	// instruction per decode cycle by the 4-1-1-1 template; single-uop ADDs
	// fetch four per cycle. Compare fetch cycle counts.
	mk := func(multi bool) Stats {
		s := &sliceStream{}
		pc := uint32(0x1000)
		for i := 0; i < 400; i++ {
			var in x86.Inst
			if multi {
				in = x86.Inst{Op: x86.OpPUSH, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX)}
			} else {
				in = x86.Inst{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(1)}
			}
			enc, _ := x86.Encode(in)
			sl := slotFor(t, in, pc, 0)
			if multi {
				sl.MemAddrs = []uint32{0x9000_0000 - uint32(4*i)}
			}
			s.slots = append(s.slots, sl)
			pc += uint32(len(enc))
		}
		eng := New(DefaultConfig(ModeICache), ModeICache, s)
		eng.Run(1 << 20)
		return eng.Stats()
	}
	single := mk(false)
	multi := mk(true)
	if multi.Bins[BinICache] < 3*single.Bins[BinICache] {
		t.Errorf("decode template not limiting: single=%d multi=%d fetch cycles",
			single.Bins[BinICache], multi.Bins[BinICache])
	}
}

func TestStatsReset(t *testing.T) {
	src := loopStream(t, 200, 0)
	eng := New(DefaultConfig(ModeICache), ModeICache, src)
	eng.Run(500)
	eng.ResetStats()
	eng.Run(500)
	s := eng.Stats()
	if s.X86Retired != 500 {
		t.Errorf("post-reset retired = %d", s.X86Retired)
	}
	var binned uint64
	for b := Bin(0); b < NumBins; b++ {
		binned += s.Bins[b]
	}
	if binned != s.Cycles {
		t.Errorf("post-reset bins %d != cycles %d", binned, s.Cycles)
	}
}

// TestCloseRecyclesFrames: the frames an engine still holds when its run
// ends — cached, or queued for or in the optimizer — reach the frame
// pool through Close, which nothing else would hand them to. A pooled
// frame is one PutFrame cleared.
func TestCloseRecyclesFrames(t *testing.T) {
	e := New(DefaultConfig(ModeRePLayOpt), ModeRePLayOpt, loopStream(t, 3000, 7))
	e.Run(30_000)
	var held []*frame.Frame
	for pc := range e.insertedAt {
		c, _ := e.frames.Lookup(pc)
		held = append(held, c.of.Source)
	}
	if len(held) == 0 {
		t.Fatal("no frame cached at the end of the run")
	}
	for _, p := range e.optPending {
		held = append(held, p.of.Source)
	}
	held = append(held, e.optQueue...)
	e.Close()
	for _, f := range held {
		if f.NumX86 != 0 || len(f.UOps) != 0 || len(f.PCs) != 0 {
			t.Errorf("frame %s was not returned to the pool", f)
		}
	}
}
