package reuse

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

// slot builds one synthetic retired instruction: a 4-byte instruction
// at pc with dynamic successor next and the given micro-op flow.
func slot(pc, next uint32, op x86.Op, uops ...uop.Op) pipeline.Rec {
	us := make([]uop.UOp, len(uops))
	for i, o := range uops {
		us[i] = uop.UOp{Op: o}
	}
	in := x86.Inst{Op: op, Len: 4}
	return pipeline.Rec{Entry: &translate.Entry{PC: pc, Ctl: translate.ControlOf(&in), Inst: in, UOps: us}, NextPC: next}
}

// retire advances the detector's loop stack past the slot, then hands
// the slot to the detector: the order an engine's probe fan-out uses.
func retire(d *Detector, s pipeline.Rec) {
	d.Retire(&s)
	d.SlotRetired(&s, false, len(s.UOps))
}

// feed retires the slots through a fresh detector.
func feed(slots []pipeline.Rec) *Detector {
	d := NewDetector(&LoopStack{})
	for i := range slots {
		retire(d, slots[i])
	}
	return d
}

// straight appends a run of fall-through ALU instructions [start, end).
func straight(slots []pipeline.Rec, start, end uint32) []pipeline.Rec {
	for pc := start; pc < end; pc += 4 {
		slots = append(slots, slot(pc, pc+4, x86.OpADD, uop.ADD))
	}
	return slots
}

// TestDetectorStraightLine pins the no-loop golden: every instruction
// lands in the straight bucket and no loop is reported.
func TestDetectorStraightLine(t *testing.T) {
	slots := straight(nil, 0, 40) // 10 instructions
	d := feed(slots)
	if got := d.Loops(); len(got) != 0 {
		t.Fatalf("straight-line stream detected loops: %+v", got)
	}
	b := d.Buckets()
	if b[0].X86 != 10 || b[0].UOps != 10 {
		t.Errorf("straight bucket: x86=%d uops=%d, want 10/10", b[0].X86, b[0].UOps)
	}
	for i := 1; i < NumBuckets; i++ {
		if b[i].X86 != 0 {
			t.Errorf("bucket %s nonempty: %+v", BucketLabel(i), b[i])
		}
	}
	if b[0].Classes[ClassALU] != 10 {
		t.Errorf("alu class = %d, want 10", b[0].Classes[ClassALU])
	}
}

// singleLoop builds: 2 straight instructions, then `trips` executions
// of a 3-instruction body (0x10 alu, 0x14 load, 0x18 jcc back to 0x10;
// the last execution falls through), then 2 straight instructions.
func singleLoop(trips int) []pipeline.Rec {
	slots := straight(nil, 0, 8)
	for i := 0; i < trips; i++ {
		next := uint32(0x10)
		if i == trips-1 {
			next = 0x1c // fall through on the final iteration
		}
		slots = append(slots,
			slot(0x10, 0x14, x86.OpADD, uop.ADD),
			slot(0x14, 0x18, x86.OpMOV, uop.LOAD),
			slot(0x18, next, x86.OpJCC, uop.BR))
	}
	return straight(slots, 0x1c, 0x24)
}

// TestDetectorSingleLoop pins the single-loop golden: one loop at
// header 0x10 with the exact entry/back-edge/trip-count accounting, and
// the online-detection attribution split (the first iteration retires
// before the first back edge, so it counts as straight-line).
func TestDetectorSingleLoop(t *testing.T) {
	const trips = 5
	d := feed(singleLoop(trips))
	loops := d.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1 (%+v)", len(loops), loops)
	}
	l := loops[0]
	if l.Header != 0x10 || l.Tail != 0x18 {
		t.Errorf("loop span [%#x, %#x], want [0x10, 0x18]", l.Header, l.Tail)
	}
	if l.Entries != 1 || l.BackEdges != trips-1 {
		t.Errorf("entries=%d backEdges=%d, want 1/%d", l.Entries, l.BackEdges, trips-1)
	}
	if got := l.TripCount(); got != trips {
		t.Errorf("trip count %.1f, want %d", got, trips)
	}
	if l.Nest != 1 {
		t.Errorf("nest %d, want 1", l.Nest)
	}

	b := d.Buckets()
	// 4 straight instructions outside the loop + the loop's first
	// iteration (3 instructions, retired before its back edge closed).
	if b[0].X86 != 7 {
		t.Errorf("straight x86 = %d, want 7", b[0].X86)
	}
	// Iterations 2..5 attribute at depth 1.
	if b[1].X86 != 3*(trips-1) {
		t.Errorf("loop-d1 x86 = %d, want %d", b[1].X86, 3*(trips-1))
	}
	if b[1].Classes[ClassLoad] != trips-1 || b[1].Classes[ClassControl] != trips-1 {
		t.Errorf("d1 classes = %v, want %d loads and %d controls",
			b[1].Classes, trips-1, trips-1)
	}
	if l.UOps != 3*(trips-1) {
		t.Errorf("loop uop mass %d, want %d", l.UOps, 3*(trips-1))
	}
}

// TestDetectorNestedLoops pins the two-level golden: an outer loop at
// 0x10 iterated 3 times, an inner loop at 0x20 iterated 4 times per
// activation, with pinned nesting depths and trip counts.
func TestDetectorNestedLoops(t *testing.T) {
	const outerTrips, innerTrips = 3, 4
	var slots []pipeline.Rec
	for o := 0; o < outerTrips; o++ {
		slots = append(slots,
			slot(0x10, 0x14, x86.OpADD, uop.ADD),
			slot(0x14, 0x20, x86.OpADD, uop.ADD))
		for i := 0; i < innerTrips; i++ {
			next := uint32(0x20)
			if i == innerTrips-1 {
				next = 0x28
			}
			slots = append(slots,
				slot(0x20, 0x24, x86.OpMOV, uop.LOAD),
				slot(0x24, next, x86.OpJCC, uop.BR))
		}
		next := uint32(0x10)
		if o == outerTrips-1 {
			next = 0x2c
		}
		slots = append(slots, slot(0x28, next, x86.OpJCC, uop.BR))
	}
	slots = straight(slots, 0x2c, 0x34)

	d := feed(slots)
	loops := d.Loops()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2 (%+v)", len(loops), loops)
	}
	// Insertion order: the inner loop closes its first back edge before
	// the outer loop does.
	inner, outer := loops[0], loops[1]
	if inner.Header != 0x20 || outer.Header != 0x10 {
		t.Fatalf("headers inner=%#x outer=%#x, want 0x20/0x10", inner.Header, outer.Header)
	}
	if inner.Entries != outerTrips || inner.BackEdges != outerTrips*(innerTrips-1) {
		t.Errorf("inner entries=%d backEdges=%d, want %d/%d",
			inner.Entries, inner.BackEdges, outerTrips, outerTrips*(innerTrips-1))
	}
	if got := inner.TripCount(); got != innerTrips {
		t.Errorf("inner trip count %.1f, want %d", got, innerTrips)
	}
	if outer.Entries != 1 || outer.BackEdges != outerTrips-1 {
		t.Errorf("outer entries=%d backEdges=%d, want 1/%d", outer.Entries, outer.BackEdges, outerTrips-1)
	}
	if got := outer.TripCount(); got != outerTrips {
		t.Errorf("outer trip count %.1f, want %d", got, outerTrips)
	}
	if outer.Nest != 1 || inner.Nest != 2 {
		t.Errorf("nesting outer=%d inner=%d, want 1/2", outer.Nest, inner.Nest)
	}

	b := d.Buckets()
	// Depth-2 work: inner-loop iterations retired while both loops were
	// live. The outer loop activates at its first back edge (end of
	// outer iteration 1), so outer iteration 1's inner iterations 2..4
	// sit at depth 1 and only outer iterations 2..3 contribute depth-2
	// work: 2 outer trips × 3 closed inner iterations × 2 instructions.
	if want := uint64(2 * (innerTrips - 1) * 2); b[2].X86 != want {
		t.Errorf("loop-d2 x86 = %d, want %d", b[2].X86, want)
	}
	if b[3].X86 != 0 {
		t.Errorf("loop-d3+ x86 = %d, want 0", b[3].X86)
	}
}

// TestDetectorEarlyExit pins the early-exit golden: a loop left by a
// taken forward branch mid-body still closes its activation, and the
// instructions after the exit attribute as straight-line.
func TestDetectorEarlyExit(t *testing.T) {
	const fullTrips = 3
	var slots []pipeline.Rec
	for i := 0; i < fullTrips; i++ {
		slots = append(slots,
			slot(0x10, 0x14, x86.OpADD, uop.ADD),
			slot(0x14, 0x18, x86.OpJCC, uop.BR), // not taken: falls through
			slot(0x18, 0x10, x86.OpJCC, uop.BR))
	}
	// Final iteration: the guard at 0x14 fires and exits to 0x30.
	slots = append(slots,
		slot(0x10, 0x14, x86.OpADD, uop.ADD),
		slot(0x14, 0x30, x86.OpJCC, uop.BR))
	slots = straight(slots, 0x30, 0x38)

	d := feed(slots)
	loops := d.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1 (%+v)", len(loops), loops)
	}
	l := loops[0]
	if l.Entries != 1 || l.BackEdges != fullTrips {
		t.Errorf("entries=%d backEdges=%d, want 1/%d", l.Entries, l.BackEdges, fullTrips)
	}
	// 3 closed iterations + the partial exit iteration ≈ 4 trips.
	if got := l.TripCount(); got != fullTrips+1 {
		t.Errorf("trip count %.1f, want %d", got, fullTrips+1)
	}
	if d.Depth() != 0 {
		t.Errorf("detector still %d deep after exit", d.Depth())
	}
	b := d.Buckets()
	// Straight: iteration 1 (3 insts, pre-detection) + 2 tail insts.
	// Depth 1: iterations 2..3 (6 insts) + the partial iteration (2).
	if b[0].X86 != 5 || b[1].X86 != 8 {
		t.Errorf("x86 split straight=%d d1=%d, want 5/8", b[0].X86, b[1].X86)
	}
}

// TestDetectorLoopWithCall pins the call-transparency rule: a loop
// whose body calls a function stays live through the callee (its
// instructions are dynamically inside the loop), and the callee's work
// attributes at the loop's depth.
func TestDetectorLoopWithCall(t *testing.T) {
	const trips = 3
	var slots []pipeline.Rec
	for i := 0; i < trips; i++ {
		next := uint32(0x10)
		if i == trips-1 {
			next = 0x18
		}
		slots = append(slots,
			slot(0x10, 0x100, x86.OpCALL, uop.STORE, uop.JMP), // push return, jump
			slot(0x100, 0x104, x86.OpADD, uop.ADD),            // callee body
			slot(0x104, 0x14, x86.OpRET, uop.LOAD, uop.JR),    // return to loop
			slot(0x14, next, x86.OpJCC, uop.BR))
	}
	slots = straight(slots, 0x18, 0x20)

	d := feed(slots)
	loops := d.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1 (%+v): callee PCs must not split the loop", len(loops), loops)
	}
	l := loops[0]
	if l.Header != 0x10 || l.Entries != 1 || l.BackEdges != trips-1 {
		t.Errorf("loop = %+v, want header 0x10, 1 entry, %d back edges", l, trips-1)
	}
	b := d.Buckets()
	// Iterations 2..3 (4 insts each, callee included) attribute at d1.
	if want := uint64((trips - 1) * 4); b[1].X86 != want {
		t.Errorf("loop-d1 x86 = %d, want %d (callee must attribute inside the loop)", b[1].X86, want)
	}
	if d.Depth() != 0 {
		t.Errorf("detector still %d deep at end", d.Depth())
	}
}

// TestDetectorFrameEvents pins event attribution: lifecycle events land
// in the bucket of the depth live when they fire.
func TestDetectorFrameEvents(t *testing.T) {
	d := NewDetector(&LoopStack{})
	d.FrameBuilt(0, 0, 0, 0) // straight-line: nothing retired yet
	slots := singleLoop(4)
	for i := range slots {
		retire(d, slots[i])
		if slots[i].PC == 0x14 { // inside the loop body
			d.FrameHit(0, 0, 0)
			d.OptRemoved(0, 0, 0, 2, 0, 0)
			d.Evict(0, 0, 0, 0)
		}
	}
	b := d.Buckets()
	if b[0].FrameBuilds != 1 {
		t.Errorf("straight frame builds = %d, want 1", b[0].FrameBuilds)
	}
	// The 0x14 slot executes 4 times: once pre-detection (straight),
	// three times at depth 1.
	if b[0].FrameHits != 1 || b[1].FrameHits != 3 {
		t.Errorf("frame hits straight=%d d1=%d, want 1/3", b[0].FrameHits, b[1].FrameHits)
	}
	if b[1].OptRemoved != 6 || b[1].Evictions != 3 {
		t.Errorf("d1 optRemoved=%d evictions=%d, want 6/3", b[1].OptRemoved, b[1].Evictions)
	}
}

// TestCollectorFold checks Attach and its fold: per-trace probes fold
// into one report, loops are tagged with their trace index, and a
// second fold call is a no-op.
func TestCollectorFold(t *testing.T) {
	c := NewCollector()
	for trace := 0; trace < 2; trace++ {
		var loops LoopStack
		p, done := c.Attach("", trace, &loops)
		slots := singleLoop(4)
		for i := range slots {
			loops.Retire(&slots[i])
			p.SlotRetired(&slots[i], false, len(slots[i].UOps))
		}
		done()
		done() // a second fold must not double-count
	}
	r := c.Snapshot()
	if r.Loops != 2 {
		t.Fatalf("loops = %d, want 2 (one per trace)", r.Loops)
	}
	seen := map[int]bool{}
	for _, l := range r.TopLoops {
		seen[l.Trace] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("trace tags missing: %+v", r.TopLoops)
	}
	if r.TotalX86 == 0 || r.TotalUOps == 0 {
		t.Errorf("empty totals: %+v", r)
	}
	var sum uint64
	for _, b := range r.Buckets {
		sum += b.X86
	}
	if sum != r.TotalX86 {
		t.Errorf("bucket x86 sum %d != total %d", sum, r.TotalX86)
	}
	if f := r.LoopFrac(); f <= 0 || f >= 1 {
		t.Errorf("loop fraction %f out of (0,1)", f)
	}
	if got, want := len(Signature(&r)), NumBuckets*(NumClasses+2); got != want {
		t.Errorf("signature dims %d, want %d", got, want)
	}
}
