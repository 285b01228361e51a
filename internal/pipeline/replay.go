package pipeline

import (
	"repro/internal/frame"
	"repro/internal/opt"
)

// depositFrame receives completed frames from the constructor. In RPO
// mode the frame passes through the optimization engine, which is
// pipelined (OptPipeDepth concurrent frames) with a latency of
// OptCyclesPerUOp per micro-op; frames arriving while every pipeline
// slot is busy are dropped, as in the paper's design discussion.
func (e *Engine) depositFrame(f *frame.Frame) {
	e.stats.FramesConstructed++
	if e.probe != nil {
		e.probe.FrameBuilt(e.cycle, f.ID, f.StartPC, len(f.UOps))
	}
	// Skip when a comparable frame is already cached or in flight; a
	// replacement must grow the frame substantially (50%) to be worth
	// another pass through the optimization engine. Deposit transferred
	// ownership, so dropped frames are recycled.
	if ex, ok := e.frames.Lookup(f.StartPC); ok && f.NumX86 < ex.of.Source.NumX86+ex.of.Source.NumX86/2 {
		frame.PutFrame(f)
		return
	}
	for _, p := range e.optPending {
		if p.of.StartPC == f.StartPC && f.NumX86 < p.of.Source.NumX86+p.of.Source.NumX86/2 {
			frame.PutFrame(f)
			return
		}
	}

	// Abort feedback: frames that fired assertions are rebuilt smaller
	// (fast shrink on abort, slow regrowth on commits).
	if cap, ok := e.growCap[f.StartPC]; ok && len(f.UOps) > cap {
		f = f.Truncate(cap)
		if f == nil || len(f.UOps) < e.cfg.FrameCfg.MinUOps {
			return
		}
	}

	if e.mode == ModeRePLay {
		// Basic rePLay: frames go straight to the frame cache.
		e.cacheFrame(opt.Remap(f, e.cfg.OptScope))
		return
	}

	// Buffer the frame for the optimization pipeline; drop when the
	// buffer is full (the paper's policy for a busy optimizer).
	if len(e.optQueue) >= optQueueDepth {
		e.stats.FramesDropped++
		frame.PutFrame(f)
		return
	}
	for _, q := range e.optQueue {
		if q.StartPC == f.StartPC && f.NumX86 < q.NumX86+q.NumX86/2 {
			frame.PutFrame(f)
			return
		}
	}
	e.optQueue = append(e.optQueue, f)
	e.startOptimizations()
}

// optQueueDepth is the optimizer's input buffer (frames awaiting a
// pipeline slot).
const optQueueDepth = 8

// persistentAborts is the consecutive-abort threshold that invalidates a
// cached frame (fewer are treated as transient contrary outcomes).
const persistentAborts = 4

// startOptimizations assigns buffered frames to free optimizer slots.
func (e *Engine) startOptimizations() {
	for len(e.optQueue) > 0 {
		slot := 0
		for i := 1; i < len(e.optSlots); i++ {
			if e.optSlots[i] < e.optSlots[slot] {
				slot = i
			}
		}
		if e.optSlots[slot] > e.cycle {
			return
		}
		f := e.optQueue[0]
		e.optQueue = e.optQueue[1:]
		of := opt.Remap(f, e.cfg.OptScope)
		st := opt.OptimizeTraced(of, e.cfg.OptOptions, e.optRecorder())
		if e.cfg.OptReschedule {
			opt.Schedule(of)
		}
		e.accumulateOpt(st)
		e.stats.FramesOptimized++
		dwell := uint64(e.cfg.OptCyclesPerUOp * len(f.UOps))
		if e.probe != nil {
			e.probe.OptRemoved(e.cycle, f.ID, f.StartPC, st.UOpsIn, st.UOpsOut, dwell)
		}
		done := e.cycle + dwell
		e.optSlots[slot] = done
		e.optPending = append(e.optPending, pendingFrame{readyAt: done, of: of})
	}
}

func (e *Engine) accumulateOpt(st opt.Stats) {
	o := &e.stats.Opt
	o.UOpsIn += st.UOpsIn
	o.UOpsOut += st.UOpsOut
	o.LoadsIn += st.LoadsIn
	o.LoadsOut += st.LoadsOut
	o.RemovedNOP += st.RemovedNOP
	o.FoldedCP += st.FoldedCP
	o.Reassoc += st.Reassoc
	o.CSEVals += st.CSEVals
	o.CSELoads += st.CSELoads
	o.SFLoads += st.SFLoads
	o.FusedAsserts += st.FusedAsserts
	o.RemovedDCE += st.RemovedDCE
	o.UnsafeStores += st.UnsafeStores
}

// drainOptimizer starts buffered work on free slots and inserts frames
// whose optimization latency has elapsed.
func (e *Engine) drainOptimizer() {
	if e.optSlots != nil {
		e.startOptimizations()
	}
	if len(e.optPending) == 0 {
		return
	}
	kept := e.optPending[:0]
	for _, p := range e.optPending {
		if p.readyAt <= e.cycle {
			e.cacheFrame(p.of)
		} else {
			kept = append(kept, p)
		}
	}
	e.optPending = kept
}

// cacheFrame compiles a finished frame's dispatch program and enters
// both into the frame cache, sized by the frame's valid µops.
func (e *Engine) cacheFrame(of *opt.OptFrame) {
	c := e.compileFrame(of)
	e.frames.Insert(of.StartPC, len(c.prog), c)
}

// fetchFrame fetches one frame from the frame cache: Width micro-ops per
// cycle with explicit (renamed) dataflow, assertion detection against the
// correct path, unsafe-store conflict checking, and the paper's
// pessimistic recovery (initiated only once every frame micro-op is ready
// to retire).
func (e *Engine) fetchFrame(c *cachedFrame) {
	// Guard the fetched frame against mid-fetch recycling: the abort
	// path's Invalidate and the commit path's RetireFrame (which can
	// re-deposit and displace this very cache entry) both reach the
	// cache's Recycle hook while this fetch still reads the entry.
	// While it is set, pull also keeps the frame's slots in place.
	e.activeSrc = c.of.Source
	e.runFrame(c)
	e.activeSrc = nil
}

// runFrame is fetchFrame's body, run under its recycling guard.
func (e *Engine) runFrame(c *cachedFrame) {
	of := c.of
	src := of.Source
	// Consume correct-path slots along the frame's construction path.
	// They stay in the pending deque, so consumed is a view of it, and
	// re-executing them means moving the head back to lo.
	lo := e.pendingLo
	diverged := false
	for k := 0; k < src.NumX86; k++ {
		s := e.peek()
		if s == nil || s.PC != src.PCs[k] {
			break
		}
		e.next()
		if s.NextPC != src.NextPCs[k] {
			diverged = true
			break
		}
	}
	consumed := e.pending[lo:e.pendingLo]
	if !diverged && len(consumed) < src.NumX86 {
		// Stream ended (or path mismatch) mid-frame: re-execute decoded.
		e.pendingLo = lo
		e.fetchICache()
		return
	}

	e.profAt(src.StartPC) // cache-switch turnaround belongs to the frame head
	e.switchTo(srcFC)
	e.stats.FrameFetches++
	if e.probe != nil {
		e.probe.FrameHit(e.cycle, src.ID, src.StartPC)
	}
	savedArch := e.regReady

	// Dispatch the program, Width micro-ops per fetch cycle. The ready
	// table (see readyOps) is engine scratch whose slot 0 is never
	// written. Its live-in section is a copy of regReady taken here,
	// which stays exact for the whole dispatch loop: nothing writes
	// regReady while a frame dispatches (commit's live-out updates come
	// after). Its op section needs no clearing, since a source only
	// reads the slot of an op issued earlier in this same loop.
	n := readyOps + len(c.prog)
	if cap(e.scratchReady) < n {
		e.scratchReady = make([]uint64, n)
	}
	ready := e.scratchReady[:n]
	copy(ready[readyLiveIn:readyOps], e.regReady[readyLiveIn:readyOps])
	var maxDone uint64
	fetchAt := e.cycle
	groupLeft := 0
	for p := range c.prog {
		o := &c.prog[p]
		if groupLeft == 0 {
			// Per-PC attribution inside the frame: the group's cycles
			// belong to the instruction leading it.
			if e.probe != nil && int(o.instIdx) < len(src.PCs) {
				e.profPC = src.PCs[o.instIdx]
			}
			e.windowStall()
			fetchAt = e.cycle
			e.tick(BinFrame)
			groupLeft = e.cfg.Width
		}
		groupLeft--
		r := max(ready[o.srcA], ready[o.srcB], ready[o.srcF])
		addr, hasAddr := memAddr(consumed, o.instIdx, o.memSub, o.profAddr)
		done := e.dispatchOp(e.fu[o.class], uint64(o.lat), o.flags, r, fetchAt, addr, hasAddr)
		ready[readyOps+p] = done
		maxDone = max(maxDone, done)
	}

	// Unsafe-store conflict check against the speculated-across loads'
	// runtime addresses.
	unsafeConflict := false
	for _, g := range of.UnsafeGuards {
		st := &of.Ops[g.Store]
		if !st.Valid {
			continue
		}
		sa, ok := memAddr(consumed, st.InstIdx, st.MemSub, st.ProfAddr)
		if !ok {
			continue
		}
		ga, ok := memAddr(consumed, g.InstIdx, g.MemSub, g.ProfAddr)
		if !ok {
			continue
		}
		d := int64(sa) - int64(ga)
		if d < 0 {
			d = -d
		}
		if d < 4 {
			unsafeConflict = true
		}
	}

	if diverged || unsafeConflict {
		// Assertion recovery: pessimistic — wait for the whole frame to be
		// ready to retire, then roll back and re-execute the original
		// instructions from the ICache.
		e.stats.FrameAborts++
		if unsafeConflict && !diverged {
			e.stats.UnsafeAborts++
		}
		if e.probe != nil {
			e.probe.AssertFired(e.cycle, src.ID, src.StartPC, unsafeConflict && !diverged)
		}
		e.profAt(src.StartPC) // recovery wait belongs to the aborting frame
		e.stallUntil(maxDone, BinAssert)
		// A transient assert (a rare contrary outcome) keeps the frame — it
		// will run cleanly again next fetch. Only a persistent run of
		// aborts (a real behaviour change) invalidates it, capping rebuilt
		// frames at the size that executed cleanly.
		e.abortRuns[src.StartPC]++
		if e.abortRuns[src.StartPC] >= persistentAborts {
			delete(e.abortRuns, src.StartPC)
			e.frames.Invalidate(src.StartPC)
			cap := 0
			if len(consumed) > 1 {
				for i := range src.InstIdx {
					if int(src.InstIdx[i]) < len(consumed)-1 {
						cap++
					}
				}
			}
			if min := 2 * e.cfg.FrameCfg.MinUOps; cap < min {
				cap = min
			}
			if old, ok := e.growCap[src.StartPC]; ok && old < cap {
				cap = old
			}
			e.growCap[src.StartPC] = cap
		}
		e.regReady = savedArch
		e.pendingLo = lo
		e.recoverSlots = len(consumed)
		if e.probe != nil {
			e.probe.FrameRetired(e.cycle, len(c.prog), false)
		}
		return
	}

	// Commit.
	e.stats.FrameCommits++
	delete(e.abortRuns, src.StartPC)
	if cap, ok := e.growCap[src.StartPC]; ok {
		e.growCap[src.StartPC] = cap + 1
	}
	for k := range consumed {
		s := &consumed[k]
		n := uint64(len(s.Ops))
		e.stats.X86Retired++
		e.stats.UOpsBaseline += n
		e.stats.LoadsBaseline += uint64(s.Loads)
		e.stats.CoveredBaseline += n
		if e.probe != nil {
			e.probe.SlotRetired(s, true, 0)
		}
		e.trainPredictors(s)
	}
	// The region is covered: extend the pending frame with this frame's
	// converted content (frame growth toward the size limit), refreshing
	// the aliasing profile with this execution's addresses. The deposit
	// filter (substantial-growth rule) bounds re-optimization churn.
	if e.cons != nil {
		// Scratch likewise; RetireFrame copies the addresses out.
		if cap(e.scratchAddrs) < len(of.Ops) {
			e.scratchAddrs = make([]uint32, len(of.Ops))
		}
		fresh := e.scratchAddrs[:len(of.Ops)]
		clear(fresh)
		for i := range of.Ops {
			if o := &of.Ops[i]; o.MemSub >= 0 {
				fresh[i], _ = memAddr(consumed, o.InstIdx, o.MemSub, o.ProfAddr)
			}
		}
		e.cons.RetireFrame(src, fresh)
	}
	if e.fill != nil {
		e.fill.insts = e.fill.insts[:0]
		e.fill.nuops, e.fill.branches = 0, 0
	}
	e.stats.UOpsRetired += uint64(len(c.prog))
	e.stats.LoadsRetired += uint64(c.validLoads)
	if e.probe != nil {
		e.probe.FrameRetired(e.cycle, len(c.prog), true)
	}

	// Live-out scoreboard updates.
	for _, l := range c.liveOuts {
		e.regReady[readyLiveIn+int(l.reg)] = ready[l.ready]
	}
}

// memAddr returns the runtime address of a frame memory access: the
// memSub-th transaction of the instIdx-th consumed instruction, or,
// beyond the divergence point, the profile address prof. ok is false
// for an op that accesses no memory (memSub < 0) or has no address.
func memAddr(consumed []Rec, instIdx int32, memSub int8, prof uint32) (addr uint32, ok bool) {
	if memSub < 0 {
		return 0, false
	}
	if int(instIdx) < len(consumed) {
		s := &consumed[instIdx]
		if int(memSub) < len(s.MemAddrs) {
			return s.MemAddrs[memSub], true
		}
	}
	return prof, prof != 0
}
