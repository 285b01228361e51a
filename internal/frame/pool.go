package frame

import (
	"sync"

	"repro/internal/uop"
)

// Frame pooling. The constructor allocates a Frame — and grows seven
// slices — for every pending region it opens, and most of those frames
// die young: dropped below the size minimum, displaced by a cached
// fetch, deduplicated against an already-cached region, or evicted
// from the frame cache. Recycling the shells plus their slice backings
// removes the dominant allocation source on the frame-construction hot
// path. The µop body and the auxiliary per-µop and per-instruction
// slices all ride along with the shell.
//
// Ownership discipline (the -race suite pins it): PutFrame requires
// the caller to hold the frame's only live reference. Two cases
// therefore never recycle:
//
//   - a frame handed to a Deposit callback that may retain it (the
//     engine's callback recycles only the frames it drops);
//   - the donor of a Truncate, whose slices alias the surviving
//     truncated frame — the donor is simply left to the GC.
var framePool = sync.Pool{
	New: func() any { return new(Frame) },
}

// uopsCap is the µop capacity a frame without a buffer starts with: the
// paper's maximum frame size, so construction never regrows it.
const uopsCap = 256

// getFrame returns an empty frame with recycled slice capacity.
func getFrame() *Frame {
	f := framePool.Get().(*Frame)
	if cap(f.UOps) == 0 {
		f.UOps = make([]uop.UOp, 0, uopsCap)
	}
	return f
}

// PutFrame recycles a frame the caller exclusively owns. All content
// is cleared here (not in getFrame), so a pooled frame is ready to
// hand out immediately.
func PutFrame(f *Frame) {
	if f == nil {
		return
	}
	f.ID = 0
	f.StartPC, f.ExitPC = 0, 0
	f.NumX86 = 0
	f.UOps = f.UOps[:0]
	f.InstIdx = f.InstIdx[:0]
	f.MemSub = f.MemSub[:0]
	f.PCs = f.PCs[:0]
	f.NextPCs = f.NextPCs[:0]
	f.MemAddr = f.MemAddr[:0]
	f.BlockEnd = f.BlockEnd[:0]
	framePool.Put(f)
}

// branchPool recycles constructors' branch tables (one state per entry
// ID, up to the largest ID the constructor retired).
// Close clears a table's used prefix, so a pooled table is zero across
// its whole capacity and grows in place without zeroing.
var branchPool sync.Pool // *[]branchState

// Close clears the constructor's branch table and pools it for the next
// NewConstructor. The constructor must not retire again.
func (c *Constructor) Close() {
	clear(c.branches)
	b := c.branches[:0]
	c.branches = nil
	branchPool.Put(&b)
}
