// Package reuse makes trace reuse a first-class observable: it detects
// loop structure in the retired instruction stream (back edges on the
// per-PC control-flow graph the interpreter already walks), estimates
// nesting depth and trip counts, and attributes every retired micro-op
// and every frame-lifecycle event — build, hit, optimization removal,
// cache eviction — to a {loop-depth bucket, instruction-class} cell.
// Its LoopStack is the one loop detector per engine: the reuse buckets,
// internal/cycleprof's loop join and internal/diff's loop rows all read
// the same stack.
//
// The attribution is conservative by construction: each retired
// instruction and each lifecycle event lands in exactly one depth
// bucket, so the bucket sums equal the pipeline's own counters
// (X86Retired, UOpsBaseline, UOpsRetired, FramesConstructed,
// FrameFetches, Opt.Removed). The conservation test in internal/sim
// pins this for every profile, mirroring the per-pass killed==Removed
// invariant from the optimization-attribution telemetry.
//
// On top of the redundancy signal, Select picks a minimal
// representative workload subset (greedy facility-location over the
// reuse signatures, maximizing covered reuse mass per unit simulated
// cost).
package reuse

import (
	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/uop"
)

// Class buckets micro-ops by what kind of work they do; the class mix
// of a loop body is what distinguishes, say, a pointer-chasing loop
// from an arithmetic one with the same trip count.
type Class uint8

const (
	ClassALU Class = iota
	ClassLoad
	ClassStore
	ClassControl
	ClassOther

	// NumClasses is the number of instruction classes.
	NumClasses = int(ClassOther) + 1
)

var classNames = [NumClasses]string{"alu", "load", "store", "control", "other"}

func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return "other"
}

// ClassOf maps a micro-op opcode to its class.
func ClassOf(op uop.Op) Class {
	switch {
	case op == uop.LOAD:
		return ClassLoad
	case op == uop.STORE:
		return ClassStore
	case op.IsControl() || op.IsAssert():
		return ClassControl
	case op.IsALU():
		return ClassALU
	}
	return ClassOther
}

// NumBuckets is the number of loop-depth buckets: straight-line code,
// loop depth 1, depth 2, and depth 3 or deeper.
const NumBuckets = 4

var bucketLabels = [NumBuckets]string{"straight", "loop-d1", "loop-d2", "loop-d3+"}

// BucketOf maps a nesting depth (0 = outside any loop) to its bucket.
func BucketOf(depth int) int {
	if depth >= NumBuckets-1 {
		return NumBuckets - 1
	}
	return depth
}

// BucketLabel names a depth bucket for tables and metrics.
func BucketLabel(b int) string {
	if b >= 0 && b < NumBuckets {
		return bucketLabels[b]
	}
	return "loop-d3+"
}

// BucketStat is the attribution cell for one loop-depth bucket: the
// retired work that happened at that depth and the frame-lifecycle
// events that fired while execution sat at that depth.
type BucketStat struct {
	// X86 is the retired x86 instruction count.
	X86 uint64 `json:"x86"`
	// UOps is the decoded (baseline) micro-op count.
	UOps uint64 `json:"uops"`
	// UOpsRetired is the post-optimization micro-op count actually
	// executed (frame-path slots retire their frame's optimized body).
	UOpsRetired uint64 `json:"uops_retired"`
	// Covered is the baseline micro-op count retired through committed
	// frames (the numerator of frame coverage, split by depth).
	Covered uint64 `json:"covered"`
	// Classes splits UOps by instruction class, indexed by Class.
	Classes [NumClasses]uint64 `json:"classes"`
	// FrameBuilds counts frames offered by the constructor.
	FrameBuilds uint64 `json:"frame_builds"`
	// FrameHits counts frame-cache fetches.
	FrameHits uint64 `json:"frame_hits"`
	// OptRemoved counts micro-ops the optimizer removed.
	OptRemoved uint64 `json:"opt_removed"`
	// Evictions counts frame/trace-cache evictions.
	Evictions uint64 `json:"evictions"`
}

// Add accumulates another cell into b (used when folding per-engine
// detectors into a collector, and per-job reports into server metrics).
func (b *BucketStat) Add(o *BucketStat) {
	b.X86 += o.X86
	b.UOps += o.UOps
	b.UOpsRetired += o.UOpsRetired
	b.Covered += o.Covered
	for i := range b.Classes {
		b.Classes[i] += o.Classes[i]
	}
	b.FrameBuilds += o.FrameBuilds
	b.FrameHits += o.FrameHits
	b.OptRemoved += o.OptRemoved
	b.Evictions += o.Evictions
}

// Loop is one detected loop, identified by its header PC (the target
// of its back edges). Two back edges to the same header are the same
// loop; the body is approximated by the PC interval [Header, Tail].
type Loop struct {
	// Trace is the hot-spot trace the loop was observed in (traces are
	// independent address spaces, so loops never merge across them).
	Trace  int    `json:"trace"`
	Header uint32 `json:"header"`
	Tail   uint32 `json:"tail"`
	// Nest is the deepest nesting level the loop was observed at
	// (1 = outermost).
	Nest int `json:"nest"`
	// Entries counts activations; BackEdges counts iterations closed by
	// a back edge, so a full activation of N body executions contributes
	// N-1 back edges.
	Entries   uint64 `json:"entries"`
	BackEdges uint64 `json:"back_edges"`
	// UOps is the baseline micro-op mass retired while this loop was the
	// innermost active one.
	UOps uint64 `json:"uops"`
}

// TripCount estimates body executions per activation.
func (l *Loop) TripCount() float64 {
	if l.Entries == 0 {
		return 0
	}
	return float64(l.BackEdges+l.Entries) / float64(l.Entries)
}

// activeLoop is one live activation on the loop stack.
type activeLoop struct {
	header, tail uint32
	callDepth    int
	loop         *Loop
}

// LoopStack is the streaming loop detector for one engine run: the
// stack of live loop activations, the table of loops seen so far, and
// the call depth. It is itself a probe: attached as the engine's first,
// it advances once per retired instruction, in retirement order, before
// any other probe sees the slot, so every probe on the engine reads one
// loop view. The zero value is ready to use; it is single-goroutine,
// like the engine that drives it.
//
// A loop is recognized at its first back edge — a taken control
// transfer to a lower or equal PC — so an activation's first body
// execution is attributed to the surrounding depth, the standard cost
// of online detection. An activation stays live while the PC remains
// inside [header, tail] at the call depth the loop was entered at;
// calls made from the body keep it live (the callee's instructions are
// dynamically inside the loop), and returning below that call depth
// ends it.
type LoopStack struct {
	pipeline.NopProbe
	stack     []activeLoop
	loops     map[uint32]*Loop
	order     []uint32 // header insertion order, for deterministic reports
	callDepth int
	execDepth int
}

// SlotRetired advances the stack past the retired slot.
func (ls *LoopStack) SlotRetired(s *pipeline.Rec, _ bool, _ int) { ls.Retire(s) }

// Retire advances the stack past one retired instruction: it leaves
// the loops whose body no longer holds the PC, charges the slot's
// micro-ops to the innermost live loop, then applies the instruction's
// control effects.
func (ls *LoopStack) Retire(s *pipeline.Rec) {
	pc := s.PC
	// Leave loops whose body no longer contains the PC at the call depth
	// they were entered at.
	for n := len(ls.stack); n > 0; n = len(ls.stack) {
		top := &ls.stack[n-1]
		if ls.callDepth > top.callDepth {
			break // inside a function called from the loop body
		}
		if ls.callDepth == top.callDepth && pc >= top.header && pc <= top.tail {
			break
		}
		ls.stack = ls.stack[:n-1]
	}
	ls.execDepth = len(ls.stack)
	if ls.execDepth > 0 {
		ls.stack[ls.execDepth-1].loop.UOps += uint64(len(s.UOps))
	}

	// Control effects happen on the way out: the call depth changes
	// after the instruction retires, and a taken backward branch closes
	// an iteration at the depth the instruction executed at.
	switch {
	case s.Ctl.IsCall():
		ls.callDepth++
	case s.Ctl == translate.CtlRet:
		if ls.callDepth > 0 {
			ls.callDepth--
		}
	default:
		if s.NextPC <= pc && s.Taken() {
			ls.backEdge(s.NextPC, pc)
		}
	}
}

// backEdge processes a taken backward control transfer tail -> header.
func (ls *LoopStack) backEdge(header, tail uint32) {
	// Re-iteration of a live activation: find it at the current call
	// depth, unwinding inner activations this iteration did not close.
	for i := len(ls.stack) - 1; i >= 0 && ls.stack[i].callDepth == ls.callDepth; i-- {
		a := &ls.stack[i]
		if a.header != header {
			continue
		}
		ls.stack = ls.stack[:i+1]
		if tail > a.tail {
			a.tail = tail
		}
		a.loop.BackEdges++
		if tail > a.loop.Tail {
			a.loop.Tail = tail
		}
		return
	}
	// First back edge of a new activation.
	l := ls.loops[header]
	if l == nil {
		if ls.loops == nil {
			ls.loops = make(map[uint32]*Loop)
		}
		l = &Loop{Header: header, Tail: tail}
		ls.loops[header] = l
		ls.order = append(ls.order, header)
	}
	l.Entries++
	l.BackEdges++
	if tail > l.Tail {
		l.Tail = tail
	}
	ls.stack = append(ls.stack, activeLoop{header: header, tail: tail, callDepth: ls.callDepth, loop: l})
	if nest := len(ls.stack); nest > l.Nest {
		l.Nest = nest
	}
}

// ExecDepth is the nesting depth the last retired instruction executed
// at: after it left the loops it exited, before its own back edge.
// Reuse buckets attribute retired work here.
func (ls *LoopStack) ExecDepth() int { return ls.execDepth }

// Depth is the current loop-nesting depth (0 = straight-line),
// including the last retired instruction's back edge.
func (ls *LoopStack) Depth() int { return len(ls.stack) }

// Active returns the innermost active loop's identity — its header PC —
// or ok=false when execution is in straight-line code. Like Depth it
// reflects the last retired instruction's own back edge, so a closing
// branch counts toward the loop it closes. Consumers that need an exact
// partition of observed events over loops (each event in exactly one
// row, unlike the inclusive interval rollups a nested join produces)
// attribute to the active loop at event time.
func (ls *LoopStack) Active() (header uint32, ok bool) {
	if n := len(ls.stack); n > 0 {
		return ls.stack[n-1].header, true
	}
	return 0, false
}

// Loops returns the detected loops in first-observed order.
func (ls *LoopStack) Loops() []Loop {
	out := make([]Loop, 0, len(ls.order))
	for _, h := range ls.order {
		out = append(out, *ls.loops[h])
	}
	return out
}

// Detector attributes one engine's retired work and frame-lifecycle
// events to loop-depth buckets, reading the engine's shared LoopStack
// (the engine's first probe, so it advances before each slot reaches
// the Detector). Retired slots land in the bucket of the depth they
// executed at; lifecycle events in the bucket of the depth live when
// they fire.
type Detector struct {
	pipeline.NopProbe
	*LoopStack
	buckets [NumBuckets]BucketStat
}

// NewDetector returns an empty detector over the loop stack.
func NewDetector(loops *LoopStack) *Detector { return &Detector{LoopStack: loops} }

// SlotRetired attributes one retired instruction. fromFrame marks slots
// retired through a committed frame or trace-cache line; uopsExecuted
// is the post-optimization micro-op count retired with the slot.
func (d *Detector) SlotRetired(s *pipeline.Rec, fromFrame bool, uopsExecuted int) {
	b := &d.buckets[BucketOf(d.ExecDepth())]
	b.X86++
	n := uint64(len(s.UOps))
	b.UOps += n
	b.UOpsRetired += uint64(uopsExecuted)
	if fromFrame {
		b.Covered += n
	}
	for _, u := range s.UOps {
		b.Classes[ClassOf(u.Op)]++
	}
}

// live is the bucket of the depth live right now.
func (d *Detector) live() *BucketStat { return &d.buckets[BucketOf(d.Depth())] }

// FrameBuilt attributes a constructor frame deposit.
func (d *Detector) FrameBuilt(uint64, uint64, uint32, int) { d.live().FrameBuilds++ }

// FrameHit attributes a frame-cache fetch.
func (d *Detector) FrameHit(uint64, uint64, uint32) { d.live().FrameHits++ }

// FrameRetired attributes a committed frame's optimized body.
func (d *Detector) FrameRetired(_ uint64, uops int, committed bool) {
	if committed {
		d.live().UOpsRetired += uint64(uops)
	}
}

// OptRemoved attributes micro-ops removed by an optimizer run.
func (d *Detector) OptRemoved(_, _ uint64, _ uint32, uopsIn, uopsOut int, _ uint64) {
	d.live().OptRemoved += uint64(uopsIn - uopsOut)
}

// Evict attributes a frame/trace-cache eviction.
func (d *Detector) Evict(uint64, uint32, int, uint64) { d.live().Evictions++ }

// Buckets returns the attribution cells, indexed by depth bucket.
func (d *Detector) Buckets() [NumBuckets]BucketStat { return d.buckets }
