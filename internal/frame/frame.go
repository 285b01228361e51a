// Package frame implements rePLay frame construction (Section 2 and [13]):
// the hardware component that watches the retired instruction stream,
// converts dynamically biased branches into assertions, and merges the
// resulting mutually control-independent code into atomic frames of 8-256
// micro-operations.
package frame

import (
	"fmt"
	"slices"

	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

// Frame is an atomic optimization region: a single-entry, single-exit
// sequence of micro-operations in which every internal control decision
// has been converted to an assertion. Either the whole frame commits or
// none of it does.
type Frame struct {
	// ID is a unique construction ordinal (diagnostics).
	ID uint64
	// StartPC is the frame's entry point (its frame-cache key).
	StartPC uint32
	// ExitPC is the statically known successor once the frame commits.
	ExitPC uint32

	// UOps is the frame body. Converted branches appear as ASSERT or
	// CASSERT micro-ops; internal direct jumps appear as JMP micro-ops
	// (removable by the optimizer's NOP pass, occupying slots otherwise).
	UOps []uop.UOp
	// InstIdx maps each micro-op to the ordinal of its originating x86
	// instruction within the frame.
	InstIdx []int32
	// MemSub maps each memory micro-op to its position among the
	// originating instruction's memory transactions (-1 for non-memory
	// micro-ops). Together with InstIdx it lets the simulator recover a
	// micro-op's runtime address from the reference execution.
	MemSub []int8
	// NumX86 is the number of original x86 instructions merged.
	NumX86 int
	// PCs lists the frame's x86 instruction path (one entry per original
	// instruction). Divergence of the reference execution from this path
	// is exactly an assertion firing.
	PCs []uint32
	// NextPCs lists each path instruction's dynamic successor at
	// construction time; NextPCs[len-1] == ExitPC.
	NextPCs []uint32

	// MemAddr holds the dynamic address each memory micro-op touched
	// during the construction execution (zero for non-memory micro-ops) —
	// the aliasing profile passed to the optimizer for speculative memory
	// optimization.
	MemAddr []uint32

	// BlockEnd marks micro-op indexes that terminate a basic block of the
	// original code (positions of converted control). Used by the
	// optimizer's intra-/inter-block scope restrictions.
	BlockEnd []int
}

// NumLoads counts LOAD micro-ops in the frame body.
func (f *Frame) NumLoads() int {
	n := 0
	for _, u := range f.UOps {
		if u.Op == uop.LOAD {
			n++
		}
	}
	return n
}

// Config holds frame-construction parameters.
type Config struct {
	// MinUOps/MaxUOps bound deposited frame sizes (paper: 8-256).
	MinUOps int
	MaxUOps int
	// BiasThreshold is the number of consecutive same-direction outcomes
	// before a conditional branch is considered biased.
	BiasThreshold int
	// TargetThreshold is the number of consecutive same-target outcomes
	// before an indirect transfer is considered stable.
	TargetThreshold int
}

// DefaultConfig matches the paper's rePLay configuration.
func DefaultConfig() Config {
	return Config{MinUOps: 8, MaxUOps: 256, BiasThreshold: 16, TargetThreshold: 16}
}

// branchState is the constructor's confidence in one branch: the last
// direction of a conditional one, the last target of an indirect one,
// and how many consistent outcomes back it up (decaying on contrary
// ones). pc is the branch's address, set on its first outcome.
type branchState struct {
	pc     uint32
	target uint32
	count  int
	dir    bool
	seen   bool
}

// Constructor synthesizes frames from the retired instruction stream.
type Constructor struct {
	cfg Config
	// branches holds each branch's state, indexed by its entry's ID:
	// every entry a constructor retires comes from one decode table.
	branches []branchState

	pending  *Frame
	nextID   uint64
	lastNext uint32 // dynamic successor of the last included instruction

	// Deposit receives each completed frame.
	Deposit func(*Frame)

	// Constructed counts frames deposited.
	Constructed uint64

	// End-reason counters (diagnostics for coverage analysis).
	EndUnbiased  uint64 // pending ended at an unbiased conditional
	EndUnstable  uint64 // pending ended at an unstable indirect
	EndMaxSize   uint64 // pending ended at the size limit
	DroppedSmall uint64 // pending discarded below MinUOps
}

// NewConstructor returns a Constructor with the given configuration,
// on a branch table a closed constructor left cleared, if any.
func NewConstructor(cfg Config, deposit func(*Frame)) *Constructor {
	c := &Constructor{cfg: cfg, Deposit: deposit}
	if b, _ := branchPool.Get().(*[]branchState); b != nil {
		c.branches = *b
	}
	return c
}

// branch returns the state of the branch at entry d, by its ID. It
// panics when the ID already belongs to another PC, which means d comes
// from a different decode table than earlier entries.
func (c *Constructor) branch(d *translate.Entry) *branchState {
	if n := int(d.ID) + 1; n > len(c.branches) {
		// Past its length the table is zero: fresh capacity, or what
		// Close cleared.
		c.branches = slices.Grow(c.branches, n-len(c.branches))[:n]
	}
	b := &c.branches[d.ID]
	if !b.seen {
		b.pc, b.seen = d.PC, true
	} else if b.pc != d.PC {
		panic(fmt.Sprintf("frame: entry ID %d retired at %#x and %#x: entries from two decode tables", d.ID, b.pc, d.PC))
	}
	return b
}

// Retire feeds one retired x86 instruction: its decode-table entry,
// dynamic outcome (nextPC) and the dynamic addresses of its memory
// micro-ops, in flow order. Every entry a constructor retires must come
// from one decode table, since branch state is kept by entry ID.
func (c *Constructor) Retire(d *translate.Entry, nextPC uint32, memAddrs []uint32) {
	pc := d.PC
	taken := nextPC != pc+uint32(d.Inst.Len)

	switch {
	case d.Ctl == translate.CtlHalt:
		c.finish()
		return
	case d.Ctl == translate.CtlCond:
		e := c.branch(d)
		// Decaying bias counter: an occasional contrary outcome weakens
		// confidence without discarding it, so strongly biased branches
		// stay promoted through rare flips.
		if e.count > 0 && e.dir == taken {
			if e.count < 4*c.cfg.BiasThreshold {
				e.count++
			}
		} else {
			e.count -= c.cfg.BiasThreshold / 2
			if e.count <= 0 {
				e.dir, e.count = taken, 1
			}
		}
		if e.count < c.cfg.BiasThreshold || e.dir != taken {
			// Unbiased, or the rare direction: the branch ends the frame
			// and is not included.
			c.EndUnbiased++
			c.finish()
			c.startAt(nextPC)
			return
		}
	case d.Ctl.IsIndirect():
		e := c.branch(d)
		if e.count > 0 && e.target == nextPC {
			if e.count < 4*c.cfg.TargetThreshold {
				e.count++
			}
		} else {
			e.count -= c.cfg.TargetThreshold / 2
			if e.count <= 0 {
				e.target, e.count = nextPC, 1
			}
		}
		if e.count < c.cfg.TargetThreshold || e.target != nextPC {
			c.EndUnstable++
			c.finish()
			c.startAt(nextPC)
			return
		}
	}

	// Room check: close the pending frame at a clean boundary first.
	if c.pending != nil && len(c.pending.UOps)+len(d.UOps) > c.cfg.MaxUOps {
		c.EndMaxSize++
		c.finishAligned()
	}
	if c.pending == nil {
		c.startAt(pc)
	}
	f := c.pending
	instIdx := int32(f.NumX86)
	f.NumX86++
	f.PCs = append(f.PCs, pc)
	f.NextPCs = append(f.NextPCs, nextPC)

	mi := 0
	for _, u := range d.UOps {
		conv := u
		switch {
		case u.Op == uop.BR:
			// Convert to an assertion of the biased direction.
			cond := u.Cond
			if !taken {
				cond = cond.Negate()
			}
			conv = uop.UOp{Op: uop.ASSERT, Cond: cond}
		case u.Op == uop.JR:
			// Stable indirect: assert the profiled target.
			conv = uop.UOp{Op: uop.CASSERT, Cond: x86.CondE, SrcA: u.SrcA, SrcB: uop.RegNone, Imm: int32(nextPC)}
		case u.Op == uop.JMP:
			// Internal direct jump: kept as a slot-occupying micro-op; the
			// optimizer's NOP pass removes it.
		}
		f.UOps = append(f.UOps, conv)
		f.InstIdx = append(f.InstIdx, instIdx)
		addr := uint32(0)
		sub := int8(-1)
		if u.Op.IsMem() {
			if mi < len(memAddrs) {
				addr = memAddrs[mi]
			}
			sub = int8(mi)
			mi++
		}
		f.MemAddr = append(f.MemAddr, addr)
		f.MemSub = append(f.MemSub, sub)
	}
	if d.Ctl != translate.CtlNone {
		f.BlockEnd = append(f.BlockEnd, len(f.UOps)-1)
	}
	c.lastNext = nextPC

	// Loop-head alignment: a backward edge that does not return to this
	// frame's own start ends the frame, so the next frame begins exactly
	// at the loop head. All entries into a hot loop then converge on one
	// canonical self-chaining frame instead of a precessing family of
	// shifted tilings.
	if d.Ctl != translate.CtlNone && nextPC <= pc && nextPC != f.StartPC {
		c.finish()
		c.startAt(nextPC)
		return
	}

	if len(f.UOps) >= c.cfg.MaxUOps {
		c.finishAligned()
	}
}

// Flush deposits any pending frame (end of stream).
func (c *Constructor) Flush() { c.finish() }

// RetireFrame informs the constructor that a cached frame's instructions
// retired through a frame-cache fetch. The frame's already-converted
// content extends the pending frame, letting frames grow across commits
// toward the size limit and absorb newly biased branches between them —
// rePLay's frame promotion. memAddr, when non-nil, refreshes the
// per-micro-op aliasing profile with this execution's addresses.
func (c *Constructor) RetireFrame(f *Frame, memAddr []uint32) {
	if c.pending != nil && len(c.pending.UOps)+len(f.UOps) > c.cfg.MaxUOps {
		c.EndMaxSize++
		c.finishAligned()
	}
	if len(f.UOps) > c.cfg.MaxUOps/2 {
		// Already near capacity: growing would immediately overflow, so
		// leave construction idle until fetch exits to uncovered code.
		PutFrame(c.pending)
		c.pending = nil
		c.lastNext = f.ExitPC
		return
	}
	if c.pending == nil {
		c.startAt(f.StartPC)
	}
	p := c.pending
	off := int32(p.NumX86)
	base := len(p.UOps)
	p.UOps = append(p.UOps, f.UOps...)
	for _, ii := range f.InstIdx {
		p.InstIdx = append(p.InstIdx, ii+off)
	}
	p.MemSub = append(p.MemSub, f.MemSub...)
	if memAddr != nil {
		p.MemAddr = append(p.MemAddr, memAddr...)
	} else {
		p.MemAddr = append(p.MemAddr, f.MemAddr...)
	}
	p.PCs = append(p.PCs, f.PCs...)
	p.NextPCs = append(p.NextPCs, f.NextPCs...)
	for _, be := range f.BlockEnd {
		p.BlockEnd = append(p.BlockEnd, be+base)
	}
	p.NumX86 += f.NumX86
	c.lastNext = f.ExitPC
	if len(p.UOps) >= c.cfg.MaxUOps {
		c.EndMaxSize++
		c.finishAligned()
	}
}

// startAt begins a new pending frame at the given PC.
func (c *Constructor) startAt(pc uint32) {
	f := getFrame()
	f.ID = c.nextID
	f.StartPC = pc
	c.pending = f
	c.nextID++
}

// deposit counts a finished frame and hands it downstream (Deposit
// transfers ownership). Both finish paths funnel through here.
func (c *Constructor) deposit(f *Frame) {
	c.Constructed++
	if c.Deposit != nil {
		c.Deposit(f)
	}
}

// finishAligned deposits the pending frame, preferring to cut it at the
// last point where control returned to the frame's own start. A frame
// whose exit equals its entry chains to itself in the frame cache, so hot
// loops are covered by one stable frame instead of an ever-precessing
// family of overlapping tilings.
func (c *Constructor) finishAligned() {
	f := c.pending
	c.pending = nil
	if f == nil {
		return
	}
	if len(f.UOps) < c.cfg.MinUOps {
		c.DroppedSmall++
		PutFrame(f)
		return
	}
	cutInst := -1
	for i := f.NumX86 - 1; i >= 0; i-- {
		if f.NextPCs[i] == f.StartPC {
			cutInst = i
			break
		}
	}
	if cutInst >= 0 {
		n := 0
		for i := range f.UOps {
			if int(f.InstIdx[i]) <= cutInst {
				n++
			}
		}
		if n >= c.cfg.MinUOps {
			if g := f.Truncate(n); g != nil {
				f = g
			}
		}
	}
	f.ExitPC = f.NextPCs[f.NumX86-1]
	c.deposit(f)
}

// finish deposits the pending frame if it meets the size minimum.
func (c *Constructor) finish() {
	f := c.pending
	c.pending = nil
	if f == nil {
		return
	}
	if len(f.UOps) < c.cfg.MinUOps {
		c.DroppedSmall++
		PutFrame(f)
		return
	}
	f.ExitPC = c.lastNext
	c.deposit(f)
}

// Truncate returns the largest prefix of the frame ending at an
// instruction boundary with at most maxUOps micro-ops, or nil if no
// instruction fits. Any such prefix is itself a valid frame: its internal
// control is asserted and its exit is the last instruction's successor.
func (f *Frame) Truncate(maxUOps int) *Frame {
	if len(f.UOps) <= maxUOps {
		return f
	}
	cut := 0 // micro-ops kept
	for i := 1; i <= len(f.UOps) && i <= maxUOps; i++ {
		if i == len(f.UOps) || f.InstIdx[i] != f.InstIdx[i-1] {
			cut = i
		}
	}
	if cut == 0 {
		return nil
	}
	insts := int(f.InstIdx[cut-1]) + 1
	out := &Frame{
		ID:      f.ID,
		StartPC: f.StartPC,
		ExitPC:  f.NextPCs[insts-1],
		UOps:    f.UOps[:cut],
		InstIdx: f.InstIdx[:cut],
		MemSub:  f.MemSub[:cut],
		MemAddr: f.MemAddr[:cut],
		NumX86:  insts,
		PCs:     f.PCs[:insts],
		NextPCs: f.NextPCs[:insts],
	}
	for _, be := range f.BlockEnd {
		if be < cut {
			out.BlockEnd = append(out.BlockEnd, be)
		}
	}
	return out
}

// String summarizes a frame.
func (f *Frame) String() string {
	return fmt.Sprintf("frame#%d pc=%#x exit=%#x uops=%d x86=%d",
		f.ID, f.StartPC, f.ExitPC, len(f.UOps), f.NumX86)
}
