package pipeline

import (
	"repro/internal/frame"
	"repro/internal/opt"
	"repro/internal/uop"
)

// depositFrame receives completed frames from the constructor. In RPO
// mode the frame passes through the optimization engine, which is
// pipelined (OptPipeDepth concurrent frames) with a latency of
// OptCyclesPerUOp per micro-op; frames arriving while every pipeline
// slot is busy are dropped, as in the paper's design discussion.
func (e *Engine) depositFrame(f *frame.Frame) {
	e.stats.FramesConstructed++
	if e.probe != nil {
		e.probe.FrameBuilt()
	}
	if e.DepositHook != nil {
		e.DepositHook(f)
	}
	// Skip when a comparable frame is already cached or in flight; a
	// replacement must grow the frame substantially (50%) to be worth
	// another pass through the optimization engine. Deposit transferred
	// ownership, so dropped frames are recycled (unless a DepositHook
	// may have retained them).
	if ex, ok := e.frames.Lookup(f.StartPC); ok && f.NumX86 < ex.Source.NumX86+ex.Source.NumX86/2 {
		if e.DepositHook == nil {
			frame.PutFrame(f)
		}
		return
	}
	for _, p := range e.optPending {
		if p.of.StartPC == f.StartPC && f.NumX86 < p.of.Source.NumX86+p.of.Source.NumX86/2 {
			if e.DepositHook == nil {
				frame.PutFrame(f)
			}
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
		of := opt.Remap(f, e.cfg.OptScope)
		e.frames.Insert(f.StartPC, of.NumValid(), of)
		return
	}

	// Buffer the frame for the optimization pipeline; drop when the
	// buffer is full (the paper's policy for a busy optimizer).
	if len(e.optQueue) >= optQueueDepth {
		e.stats.FramesDropped++
		if e.DepositHook == nil {
			frame.PutFrame(f)
		}
		return
	}
	for _, q := range e.optQueue {
		if q.StartPC == f.StartPC && f.NumX86 < q.NumX86+q.NumX86/2 {
			if e.DepositHook == nil {
				frame.PutFrame(f)
			}
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
		if e.probe != nil {
			e.probe.OptRemoved(st.UOpsIn - st.UOpsOut)
		}
		dwell := uint64(e.cfg.OptCyclesPerUOp * len(f.UOps))
		done := e.cycle + dwell
		e.optSlots[slot] = done
		e.optPending = append(e.optPending, pendingFrame{readyAt: done, of: of})
		e.tel.FrameOptimized(e.telRun, e.cycle, f.ID, f.StartPC, st.UOpsIn, st.UOpsOut, dwell)
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
			e.frames.Insert(p.of.StartPC, p.of.NumValid(), p.of)
		} else {
			kept = append(kept, p)
		}
	}
	e.optPending = kept
}

// fetchFrame fetches one frame from the frame cache: Width micro-ops per
// cycle with explicit (renamed) dataflow, assertion detection against the
// correct path, unsafe-store conflict checking, and the paper's
// pessimistic recovery (initiated only once every frame micro-op is ready
// to retire).
func (e *Engine) fetchFrame(of *opt.OptFrame) {
	src := of.Source
	// Guard the fetched frame against mid-fetch recycling: the abort
	// path's Invalidate and the commit path's RetireFrame (which can
	// re-deposit and displace this very cache entry) both reach the
	// cache's Recycle hook while this fetch still reads of and src.
	e.activeSrc = src
	defer func() { e.activeSrc = nil }()

	// Consume correct-path slots along the frame's construction path.
	// The slot buffer is fetch-local scratch: pushback copies out of it,
	// and nothing else retains it past the fetch.
	consumed := e.scratchSlots[:0]
	defer func() { e.scratchSlots = consumed[:0] }()
	diverged := false
	for k := 0; k < src.NumX86; k++ {
		s, ok := e.peek()
		if !ok || s.PC != src.PCs[k] {
			break
		}
		e.next()
		consumed = append(consumed, s)
		if s.NextPC != src.NextPCs[k] {
			diverged = true
			break
		}
	}
	if !diverged && len(consumed) < src.NumX86 {
		// Stream ended (or path mismatch) mid-frame: re-execute decoded.
		e.pushback(consumed)
		e.fetchICache()
		return
	}

	e.profAt(src.StartPC) // cache-switch turnaround belongs to the frame head
	e.switchTo(srcFC)
	e.stats.FrameFetches++
	if e.probe != nil {
		e.probe.FrameHit()
	}
	fetchStart := e.cycle
	savedArch := e.archReady

	// Dispatch the frame body, Width micro-ops per fetch cycle. The
	// value scoreboard is engine scratch; Iterate skips invalid ops, so
	// it is cleared to match a freshly allocated buffer.
	n := len(of.Ops)
	if cap(e.scratchVals) < n {
		e.scratchVals = make([]uint64, n)
	}
	values := e.scratchVals[:n]
	clear(values)
	unsafeConflict := false
	var maxDone uint64
	fetched := 0
	fetchAt := e.cycle

	addrOf := func(o *opt.FrameOp) (uint32, bool) {
		if o.MemSub < 0 {
			return 0, false
		}
		if int(o.InstIdx) < len(consumed) {
			s := &consumed[o.InstIdx]
			if int(o.MemSub) < len(s.MemAddrs) {
				return s.MemAddrs[o.MemSub], true
			}
		}
		// Beyond the divergence point: approximate with the profile address.
		return o.ProfAddr, o.ProfAddr != 0
	}

	of.Iterate(func(i int32, o *opt.FrameOp) {
		if fetched%e.cfg.Width == 0 {
			// Per-PC attribution inside the frame: the group's cycles
			// belong to the instruction leading it.
			if e.probe != nil && int(o.InstIdx) < len(src.PCs) {
				e.profPC = src.PCs[o.InstIdx]
			}
			e.windowStall()
			fetchAt = e.cycle
			e.tick(BinFrame)
		}
		fetched++

		ready := e.refReady(o.SrcA, values)
		if t := e.refReady(o.SrcB, values); t > ready {
			ready = t
		}
		if t := e.refReady(o.SrcF, values); t > ready {
			ready = t
		}
		addr, hasAddr := addrOf(o)
		done := e.dispatch(o.Op, ready, fetchAt, addr, hasAddr)
		values[i] = done
		if done > maxDone {
			maxDone = done
		}
	})

	// Unsafe-store conflict check against the speculated-across loads'
	// runtime addresses.
	guardAddr := func(instIdx int32, memSub int8, prof uint32) (uint32, bool) {
		if memSub < 0 {
			return 0, false
		}
		if int(instIdx) < len(consumed) {
			sl := &consumed[instIdx]
			if int(memSub) < len(sl.MemAddrs) {
				return sl.MemAddrs[memSub], true
			}
		}
		return prof, prof != 0
	}
	for _, g := range of.UnsafeGuards {
		st := &of.Ops[g.Store]
		if !st.Valid {
			continue
		}
		sa, ok := addrOf(st)
		if !ok {
			continue
		}
		ga, ok := guardAddr(g.InstIdx, g.MemSub, g.ProfAddr)
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
		if e.AbortHook != nil {
			pc := uint32(0)
			if len(consumed) > 0 {
				pc = consumed[len(consumed)-1].PC
			}
			e.AbortHook(src.StartPC, pc, unsafeConflict && !diverged)
		}
		e.tel.AssertFired(e.telRun, e.cycle, src.ID, src.StartPC, unsafeConflict && !diverged)
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
		e.archReady = savedArch
		e.pushback(consumed)
		e.recoverSlots = len(consumed)
		e.tel.FrameFetch(e.telRun, fetchStart, e.cycle, src.ID, src.StartPC, fetched, false)
		return
	}

	// Commit.
	e.stats.FrameCommits++
	e.tel.FrameFetch(e.telRun, fetchStart, e.cycle, src.ID, src.StartPC, fetched, true)
	delete(e.abortRuns, src.StartPC)
	if cap, ok := e.growCap[src.StartPC]; ok {
		e.growCap[src.StartPC] = cap + 1
	}
	validLoads := of.NumValidLoads()
	validOps := of.NumValid()
	for k := range consumed {
		s := &consumed[k]
		e.stats.X86Retired++
		base, loads := 0, 0
		base = len(s.UOps)
		for _, u := range s.UOps {
			if u.Op == uop.LOAD {
				loads++
			}
		}
		e.stats.UOpsBaseline += uint64(base)
		e.stats.LoadsBaseline += uint64(loads)
		e.stats.CoveredBaseline += uint64(base)
		if e.probe != nil {
			e.probe.SlotRetired(*s, true, 0)
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
			o := &of.Ops[i]
			if o.MemSub >= 0 {
				if a, ok := addrOf(o); ok {
					fresh[i] = a
				} else {
					fresh[i] = o.ProfAddr
				}
			}
		}
		e.cons.RetireFrame(src, fresh)
	}
	if e.fill != nil {
		e.fill.insts = e.fill.insts[:0]
		e.fill.nuops, e.fill.branches = 0, 0
	}
	e.stats.UOpsRetired += uint64(validOps)
	e.stats.LoadsRetired += uint64(validLoads)
	if e.probe != nil {
		e.probe.FrameRetired(validOps)
	}

	// Live-out scoreboard updates.
	for r := 0; r < 8; r++ {
		if ref := of.Final[r]; ref.Kind == opt.RefOp && of.Ops[ref.Idx].Valid {
			e.archReady[r] = values[ref.Idx]
		}
	}
	if ref := of.FinalFlags; ref.Kind == opt.RefOp && of.Ops[ref.Idx].Valid {
		e.archReady[uop.FLAGS] = values[ref.Idx]
	}
}

// refReady resolves a renamed source's availability time.
func (e *Engine) refReady(r opt.Ref, values []uint64) uint64 {
	switch r.Kind {
	case opt.RefLiveIn:
		return e.archReady[r.Arch]
	case opt.RefOp:
		return values[r.Idx]
	}
	return 0
}
