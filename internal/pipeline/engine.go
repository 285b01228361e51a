package pipeline

import (
	"context"

	"repro/internal/cache"
	"repro/internal/frame"
	"repro/internal/opt"
	"repro/internal/predict"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/uop"
	"repro/internal/x86"
)

// Slot is one retired x86 instruction offered to the timing model: its
// decoded form, micro-op flow, dynamic successor and memory addresses
// (in flow order).
type Slot struct {
	PC       uint32
	Inst     x86.Inst
	UOps     []uop.UOp
	NextPC   uint32
	MemAddrs []uint32
}

// Taken reports whether the instruction redirected control flow.
func (s *Slot) Taken() bool { return s.NextPC != s.PC+uint32(s.Inst.Len) }

// Stream supplies the correct-path instruction stream.
type Stream interface {
	// Next returns the next retired instruction, or ok=false at the end.
	Next() (Slot, bool)
}

// Engine is the cycle-level timing model.
type Engine struct {
	cfg  Config
	mode Mode
	src  Stream

	// Stream lookahead and assertion-replay pushback, kept as a
	// head-indexed deque: consumption advances pendingLo instead of
	// re-slicing, so the backing array is reused instead of reallocated
	// every few fetch groups.
	pending   []Slot
	pendingLo int

	cycle uint64
	stats Stats
	base  Stats // snapshot at ResetStats

	// Dataflow state: availability time of each architectural register.
	archReady [uop.NumRegs]uint64

	// Functional units: next-free cycle per unit, per class.
	fuSimple  []uint64
	fuComplex []uint64
	fuLSU     []uint64

	// In-order retirement: FIFO of retire times of in-flight micro-ops,
	// plus a ring of the last Width retire times for the width constraint.
	inflight   []uint64 // monotonic nondecreasing retire times
	inflightLo int
	retireRing []uint64
	ringPos    int
	lastRetire uint64

	// Caches and predictors.
	icache *cache.Cache
	l1d    *cache.Cache
	l2     *cache.Cache
	gshare *predict.Gshare
	btb    *predict.BTB
	ras    *predict.RAS

	// Store buffer model: address -> completion time of the youngest
	// in-flight store. Entries outside the forwarding window are dead;
	// storeBufSweep tracks the last eviction pass so the map stays
	// bounded over long runs.
	storeBuf      map[uint32]uint64
	storeBufSweep uint64

	// rePLay engine (RP/RPO modes).
	cons       *frame.Constructor
	frames     *cache.UOpCache[*opt.OptFrame]
	optSlots   []uint64 // optimizer pipeline: next-free time per slot
	optPending []pendingFrame
	optQueue   []*frame.Frame // input buffer awaiting a pipeline slot
	// growCap caps frame size per start PC after aborts (abort feedback).
	growCap map[uint32]int
	// abortRuns tracks consecutive aborts per frame start PC.
	abortRuns map[uint32]int
	// recoverSlots counts instructions that must re-execute from the
	// ICache after an assertion recovery (the paper: "the original
	// instructions are executed instead").
	recoverSlots int

	// Trace cache (TC mode).
	traces  *cache.UOpCache[*traceEntry]
	fill    *traceFill
	lastSrc fetchSrc

	// Telemetry (see SetTelemetry). tel is nil unless attached, so the
	// disabled cost on the dispatch hot path is one nil check.
	tel         *telemetry.Collector
	telRun      int
	telInsertAt map[uint32]uint64 // frame-cache insert cycle per PC, for residency

	// The engine's probe (see SetProbe); nil unless attached, so the
	// detached cost at every hook site is one nil check.
	probe Probe
	// profPC is the guest PC the next charged fetch cycles are
	// attributed to; maintained (via profAt) only while a probe is set.
	profPC uint32

	// Wall-clock pass timing (see SetPassRecorder); nil unless a span
	// trace is being assembled for this run.
	passRec opt.TimedPassRecorder

	// fetchFrame scratch, reused across fetches (the engine is
	// single-goroutine, and everything that outlives a fetch — pushback,
	// RetireFrame — copies out of these buffers before returning).
	scratchSlots []Slot
	scratchVals  []uint64
	scratchAddrs []uint32
	// activeSrc is the frame being fetched right now; cache-eviction
	// recycling skips it (an Invalidate mid-fetch must not release
	// buffers the fetch is still reading).
	activeSrc *frame.Frame

	// MispredictHook, when set, is called on every misprediction-style
	// fetch stall (diagnostics).
	MispredictHook func(pc uint32, kind string)
	// AbortHook, when set, is called on every frame abort with the frame
	// start and the PC of the diverging/conflicting instruction.
	AbortHook func(startPC, instPC uint32, unsafe bool)
	// DepositHook observes every frame offered by the constructor.
	DepositHook func(f *frame.Frame)
}

type pendingFrame struct {
	readyAt uint64
	of      *opt.OptFrame
}

type fetchSrc int

const (
	srcNone fetchSrc = iota
	srcIC
	srcFC
)

// New returns an engine in the given mode over the instruction stream.
func New(cfg Config, mode Mode, src Stream) *Engine {
	e := &Engine{
		cfg:        cfg,
		mode:       mode,
		src:        src,
		icache:     cache.New(cfg.ICacheBytes, cfg.LineBytes, 2),
		l1d:        cache.New(cfg.L1DBytes, cfg.LineBytes, 4),
		l2:         cache.New(cfg.L2Bytes, cfg.LineBytes, 8),
		gshare:     predict.NewGshare(cfg.GshareBits),
		btb:        predict.NewBTB(cfg.BTBEntries),
		ras:        predict.NewRAS(cfg.RASDepth),
		storeBuf:   make(map[uint32]uint64),
		fuSimple:   make([]uint64, cfg.SimpleALUs),
		fuComplex:  make([]uint64, cfg.ComplexALUs),
		fuLSU:      make([]uint64, cfg.LSUs),
		retireRing: make([]uint64, cfg.Width),
	}
	switch mode {
	case ModeRePLay, ModeRePLayOpt:
		e.frames = cache.NewUOpCache[*opt.OptFrame](cfg.FrameCacheUOps)
		e.frames.Recycle = e.recycleFrame
		e.optSlots = make([]uint64, cfg.OptPipeDepth)
		e.growCap = make(map[uint32]int)
		e.abortRuns = make(map[uint32]int)
		e.cons = frame.NewConstructor(cfg.FrameCfg, e.depositFrame)
	case ModeTraceCache:
		e.traces = cache.NewUOpCache[*traceEntry](cfg.TraceCacheUOps)
		e.fill = &traceFill{}
	}
	return e
}

// recycleFrame returns a displaced frame-cache entry's buffers to their
// pools (the cache's Recycle hook: capacity eviction, same-PC
// replacement, and invalidation). Recycling is skipped when a
// DepositHook is attached — the hook may have retained the source frame
// — and for the frame currently being fetched, which an Invalidate or
// replacement can displace while the fetch still reads it; that one
// pair is left to the garbage collector.
func (e *Engine) recycleFrame(of *opt.OptFrame) {
	if e.DepositHook != nil || of == nil || of.Source == e.activeSrc {
		return
	}
	src := of.Source
	opt.PutOptFrame(of)
	frame.PutFrame(src)
}

// snapshotStats copies the full running totals, including the clock and
// the counters kept by the frame constructor.
func (e *Engine) snapshotStats() Stats {
	s := e.stats
	s.Cycles = e.cycle
	if e.cons != nil {
		s.EndUnbiased = e.cons.EndUnbiased
		s.EndUnstable = e.cons.EndUnstable
		s.EndMaxSize = e.cons.EndMaxSize
		s.DroppedSmall = e.cons.DroppedSmall
	}
	return s
}

// Stats returns the statistics accumulated since the last ResetStats.
func (e *Engine) Stats() Stats {
	s := e.snapshotStats()
	s.Sub(&e.base)
	return s
}

// ResetStats makes subsequent Stats relative to this point (used to
// exclude warmup). The whole Stats struct is snapshotted, so every
// counter — mispredicts, frame fetches and aborts, optimizer totals —
// is baselined, not just cycles, retirement counts and fetch bins.
func (e *Engine) ResetStats() {
	e.base = e.snapshotStats()
}

// next consumes the next correct-path instruction.
func (e *Engine) next() (Slot, bool) {
	if e.pendingLo < len(e.pending) {
		s := e.pending[e.pendingLo]
		e.pendingLo++
		if e.pendingLo == len(e.pending) {
			// Drained: rewind so the backing array is reused.
			e.pending = e.pending[:0]
			e.pendingLo = 0
		}
		return s, true
	}
	return e.src.Next()
}

// peek returns the next instruction without consuming it.
func (e *Engine) peek() (Slot, bool) {
	if e.pendingLo < len(e.pending) {
		return e.pending[e.pendingLo], true
	}
	s, ok := e.src.Next()
	if !ok {
		return Slot{}, false
	}
	e.pending = append(e.pending, s)
	return s, true
}

// pushback re-queues slots for re-execution (assertion recovery). The
// slots are copied, so callers may reuse their buffer afterwards.
func (e *Engine) pushback(slots []Slot) {
	if len(slots) == 0 {
		return
	}
	if e.pendingLo >= len(slots) {
		// Room in the consumed prefix: slide the slots back in place.
		e.pendingLo -= len(slots)
		copy(e.pending[e.pendingLo:], slots)
		return
	}
	rest := len(e.pending) - e.pendingLo
	need := len(slots) + rest
	if cap(e.pending) < need {
		np := make([]Slot, need, need+2*len(slots))
		copy(np, slots)
		copy(np[len(slots):], e.pending[e.pendingLo:])
		e.pending, e.pendingLo = np, 0
		return
	}
	e.pending = e.pending[:need]
	copy(e.pending[len(slots):], e.pending[e.pendingLo:e.pendingLo+rest])
	copy(e.pending, slots)
	e.pendingLo = 0
}

// stallUntil advances the clock to t, charging the idle fetch cycles to
// the bin in one step. Together with tick these are the only writers of
// Stats.Bins, which is what makes the cycle profiler's attribution
// conservation-exact: every charged cycle passes through here.
func (e *Engine) stallUntil(t uint64, bin Bin) {
	if t > e.cycle {
		n := t - e.cycle
		e.stats.Bins[bin] += n
		e.cycle = t
		if e.probe != nil {
			e.probe.CycleCharge(e.profPC, bin, n)
		}
	}
}

// tick charges the current fetch cycle to the bin and advances the clock.
func (e *Engine) tick(bin Bin) {
	e.stats.Bins[bin]++
	e.cycle++
	if e.probe != nil {
		e.probe.CycleCharge(e.profPC, bin, 1)
	}
}

// profAt notes the guest PC responsible for subsequently charged fetch
// cycles. One nil check when no probe is attached.
func (e *Engine) profAt(pc uint32) {
	if e.probe != nil {
		e.profPC = pc
	}
}

// popRetired drops retired micro-ops from the in-flight window.
func (e *Engine) popRetired() {
	for e.inflightLo < len(e.inflight) && e.inflight[e.inflightLo] <= e.cycle {
		e.inflightLo++
	}
	if e.inflightLo > 4096 && e.inflightLo*2 > len(e.inflight) {
		// Compact in place: the live suffix slides to the front, keeping
		// the backing array instead of reallocating it every window.
		n := copy(e.inflight, e.inflight[e.inflightLo:])
		e.inflight = e.inflight[:n]
		e.inflightLo = 0
	}
}

// windowStall blocks fetch (charging Stall cycles) until the scheduling
// window has room for a fetch group.
func (e *Engine) windowStall() {
	for {
		e.popRetired()
		if len(e.inflight)-e.inflightLo+e.cfg.Width <= e.cfg.WindowSize {
			return
		}
		e.stallUntil(e.inflight[e.inflightLo], BinStall)
	}
}

// fu selects the earliest-available unit of the class and books it at
// issueAt (one issue slot per cycle, pipelined execution).
func fuPick(units []uint64, ready uint64) (int, uint64) {
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	issue := ready
	if units[best] > issue {
		issue = units[best]
	}
	return best, issue
}

func classUnits(e *Engine, op uop.Op) []uint64 {
	switch op {
	case uop.MULLO, uop.MULHIU, uop.MULHIS, uop.DIVU, uop.REMU, uop.DIVS, uop.REMS:
		return e.fuComplex
	case uop.LOAD, uop.STORE:
		return e.fuLSU
	}
	return e.fuSimple
}

func opLatency(op uop.Op) uint64 {
	switch op {
	case uop.MULLO, uop.MULHIU, uop.MULHIS:
		return 4
	case uop.DIVU, uop.REMU, uop.DIVS, uop.REMS:
		return 20
	}
	return 1
}

// storeForwardWindow is the cycle span within which an in-flight store
// can still forward its data to a later load.
const storeForwardWindow = 256

// evictStaleStores drops store-buffer entries too old to ever forward
// again. Without it the map only grows — an unbounded leak over long
// simulations. Swept every few windows to keep the amortized cost nil.
func (e *Engine) evictStaleStores() {
	if e.cycle < e.storeBufSweep+4*storeForwardWindow {
		return
	}
	e.storeBufSweep = e.cycle
	for addr, done := range e.storeBuf {
		if done+storeForwardWindow <= e.cycle {
			delete(e.storeBuf, addr)
		}
	}
}

// loadLatency models the data-cache hierarchy and store-buffer bypass for
// a load issued at issueAt. It returns the completion time.
func (e *Engine) loadLatency(addr uint32, issueAt uint64) uint64 {
	if done, ok := e.storeBuf[addr]; ok && done+storeForwardWindow > issueAt {
		// Store-buffer bypass: data comes from an in-flight store.
		t := issueAt + uint64(e.cfg.StoreForwardLat)
		if done+1 > t {
			t = done + 1
		}
		return t
	}
	if e.l1d.Access(addr) {
		return issueAt + uint64(e.cfg.L1DLat)
	}
	if e.l2.Access(addr) {
		return issueAt + uint64(e.cfg.L2Lat)
	}
	return issueAt + uint64(e.cfg.MemLat)
}

// dispatch models one micro-op: rename, schedule, execute, retire. ready
// is the dataflow availability of its sources; fetchAt the cycle it was
// fetched. Returns the completion (writeback) time.
func (e *Engine) dispatch(op uop.Op, ready uint64, fetchAt uint64, memAddr uint32, hasAddr bool) uint64 {
	earliest := fetchAt + uint64(e.cfg.FrontLatency)
	if ready < earliest {
		ready = earliest
	}
	units := classUnits(e, op)
	unit, issueAt := fuPick(units, ready)
	if op.IsControl() || op.IsAssert() {
		// Deep pipe: a control micro-op cannot resolve before the minimum
		// branch resolution depth.
		if min := fetchAt + uint64(e.cfg.MinBranchResolve); issueAt < min {
			issueAt = min
		}
	}
	units[unit] = issueAt + 1

	var doneAt uint64
	switch {
	case op == uop.LOAD && hasAddr:
		doneAt = e.loadLatency(memAddr, issueAt)
	case op == uop.STORE:
		doneAt = issueAt + 1
		if hasAddr {
			e.l1d.Access(memAddr)
			e.storeBuf[memAddr] = doneAt
		}
	default:
		doneAt = issueAt + opLatency(op)
	}

	// In-order retirement, Width per cycle.
	retireAt := doneAt
	if retireAt < e.lastRetire {
		retireAt = e.lastRetire
	}
	if w := e.retireRing[e.ringPos] + 1; retireAt < w {
		retireAt = w
	}
	e.retireRing[e.ringPos] = retireAt
	e.ringPos = (e.ringPos + 1) % e.cfg.Width
	e.lastRetire = retireAt
	e.inflight = append(e.inflight, retireAt)
	if e.tel != nil {
		e.tel.FetchRetire(retireAt - fetchAt)
	}
	return doneAt
}

// readyOf computes an arch-register dataflow ready time for a micro-op on
// the decoded (ICache / trace cache) path.
func (e *Engine) readyOf(u uop.UOp) uint64 {
	var r uint64
	if u.UsesSrcA() {
		if t := e.archReady[u.SrcA]; t > r {
			r = t
		}
	}
	if u.UsesSrcB() {
		if t := e.archReady[u.SrcB]; t > r {
			r = t
		}
	}
	if u.ReadsFlags() {
		if t := e.archReady[uop.FLAGS]; t > r {
			r = t
		}
	}
	return r
}

// dispatchDecoded dispatches one decoded-path micro-op, updating the arch
// scoreboard. Returns its completion time.
func (e *Engine) dispatchDecoded(u uop.UOp, fetchAt uint64, memAddr uint32, hasAddr bool) uint64 {
	done := e.dispatch(u.Op, e.readyOf(u), fetchAt, memAddr, hasAddr)
	if d := u.DestReg(); d != uop.RegNone {
		e.archReady[d] = done
	}
	if u.WritesFlags {
		e.archReady[uop.FLAGS] = done
	}
	return done
}

// retireSlot books the committed-path accounting for one instruction.
func (e *Engine) retireSlot(s *Slot, fromFrame bool, uopsExecuted, loadsExecuted int) {
	e.stats.X86Retired++
	e.stats.UOpsRetired += uint64(uopsExecuted)
	e.stats.LoadsRetired += uint64(loadsExecuted)
	base := len(s.UOps)
	loads := 0
	for _, u := range s.UOps {
		if u.Op == uop.LOAD {
			loads++
		}
	}
	e.stats.UOpsBaseline += uint64(base)
	e.stats.LoadsBaseline += uint64(loads)
	if fromFrame {
		e.stats.CoveredBaseline += uint64(base)
	}
}

// feedConstructor offers a retired instruction to the frame constructor.
func (e *Engine) feedConstructor(s *Slot) {
	if e.cons != nil {
		e.cons.Retire(s.PC, s.Inst, s.UOps, s.NextPC, s.MemAddrs)
	}
	if e.fill != nil {
		e.fillTrace(s)
	}
}

// Run drives the engine until the stream ends or maxInsts instructions
// retire. It returns the retired instruction count.
func (e *Engine) Run(maxInsts uint64) uint64 {
	n, _ := e.RunContext(nil, maxInsts)
	return n
}

// cancelCheckMask sets how often RunContext polls the context: once per
// 2^10 fetch iterations, so cancellation lands within microseconds of
// simulated work while the hot loop stays branch-predictable.
const cancelCheckMask = 1<<10 - 1

// RunContext is Run with cooperative cancellation: when ctx is done the
// engine stops at the next fetch-group boundary and reports ctx.Err().
// The engine's state stays consistent — a later RunContext call resumes
// exactly where the canceled one stopped. A nil ctx is allowed and makes
// RunContext equivalent to Run.
func (e *Engine) RunContext(ctx context.Context, maxInsts uint64) (uint64, error) {
	// One span per engine drive (warmup and measured windows each get
	// their own); a no-op nil span unless the request is being traced.
	ctx, span := tracing.Start(ctx, "pipeline.run")
	start := e.stats.X86Retired
	defer func() {
		span.SetAttr("insts", e.stats.X86Retired-start)
		span.SetAttr("mode", e.mode.String())
		span.End()
	}()
	for iter := 0; e.stats.X86Retired-start < maxInsts; iter++ {
		if ctx != nil && iter&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return e.stats.X86Retired - start, err
			}
		}
		s, ok := e.peek()
		if !ok {
			break
		}
		// Drain optimizer completions whose latency has elapsed.
		e.drainOptimizer()
		e.evictStaleStores()

		switch {
		case e.frames != nil:
			if e.recoverSlots > 0 {
				before := e.stats.X86Retired
				e.fetchICache()
				e.recoverSlots -= int(e.stats.X86Retired - before)
				continue
			}
			if of, hit := e.frames.Lookup(s.PC); hit {
				e.fetchFrame(of)
				continue
			}
			e.fetchICache()
		case e.traces != nil:
			if tr, hit := e.traces.Lookup(s.PC); hit {
				e.fetchTraceEntry(tr)
				continue
			}
			e.fetchICache()
		default:
			e.fetchICache()
		}
	}
	return e.stats.X86Retired - start, nil
}

// switchTo charges the cache-switch turnaround when the fetch source
// changes.
func (e *Engine) switchTo(src fetchSrc) {
	if e.lastSrc != srcNone && e.lastSrc != src && e.cfg.SwitchWait > 0 {
		e.stallUntil(e.cycle+uint64(e.cfg.SwitchWait), BinWait)
	}
	e.lastSrc = src
}

// fetchICache performs one ICache-path fetch group: up to DecodeWidth x86
// instructions and Width micro-ops, ending at a taken branch.
func (e *Engine) fetchICache() {
	// The group leader owns the group's switch-turnaround, window-stall,
	// miss, and fetch cycles; mispredict recovery is re-attributed to
	// the branch by handleControl.
	if e.probe != nil {
		if s, ok := e.peek(); ok {
			e.profPC = s.PC
		}
	}
	e.switchTo(srcIC)
	e.windowStall()

	s, ok := e.peek()
	if !ok {
		return
	}
	// Instruction cache access for this fetch group.
	if !e.icache.Access(s.PC) {
		lat := uint64(e.cfg.L2Lat)
		if !e.l2.Access(s.PC) {
			lat = uint64(e.cfg.MemLat)
		}
		e.stallUntil(e.cycle+lat, BinMiss)
	}

	fetchAt := e.cycle
	e.tick(BinICache)

	instsLeft := e.cfg.DecodeWidth
	uopsLeft := e.cfg.Width
	first := true
	for instsLeft > 0 {
		s, ok := e.peek()
		if !ok {
			return
		}
		if len(s.UOps) > uopsLeft {
			return // next instruction does not fit this group
		}
		// Decode template (4-1-1-1 style): only the leading decoder
		// handles instructions that crack into multiple micro-ops.
		if !first && len(s.UOps) > 1 {
			return
		}
		first = false
		e.next()
		instsLeft--
		uopsLeft -= len(s.UOps)

		mi := 0
		loads := 0
		var brDone uint64
		for _, u := range s.UOps {
			var addr uint32
			hasAddr := false
			if u.Op.IsMem() {
				if mi < len(s.MemAddrs) {
					addr = s.MemAddrs[mi]
					hasAddr = true
				}
				mi++
			}
			done := e.dispatchDecoded(u, fetchAt, addr, hasAddr)
			if u.Op.IsControl() {
				brDone = done
			}
			if u.Op == uop.LOAD {
				loads++
			}
		}
		e.retireSlot(&s, false, len(s.UOps), loads)
		// Hook kept out of retireSlot so it stays inlinable at the
		// retirement sites; the detached cost is this one nil check.
		if e.probe != nil {
			e.probe.SlotRetired(s, false, len(s.UOps))
		}
		e.feedConstructor(&s)

		// Control-flow handling.
		if stop := e.handleControl(&s, brDone); stop {
			return
		}
	}
}

// trainPredictors updates prediction state for an instruction retired
// inside a committed frame. Frame-internal control needs no prediction,
// but training at retirement keeps the predictors consistent for the
// decoded path (as retirement-trained hardware predictors are).
func (e *Engine) trainPredictors(s *Slot) {
	switch s.Inst.Op {
	case x86.OpJCC:
		e.gshare.Update(s.PC, s.Taken())
	case x86.OpCALL:
		e.ras.Push(s.PC + uint32(s.Inst.Len))
		if s.Inst.Dst.Kind != x86.KindImm {
			e.btb.Update(s.PC, s.NextPC)
		}
	case x86.OpJMP:
		if s.Inst.Dst.Kind != x86.KindImm {
			e.btb.Update(s.PC, s.NextPC)
		}
	case x86.OpRET:
		e.ras.Pop()
	}
}

// handleControl models prediction for a decoded-path instruction and
// returns whether the fetch group must end.
func (e *Engine) handleControl(s *Slot, resolveAt uint64) bool {
	e.profAt(s.PC) // mispredict-recovery stalls belong to the branch
	in := s.Inst
	actualTaken := s.Taken()
	switch in.Op {
	case x86.OpJCC:
		e.stats.CondBranches++
		pred := e.gshare.Predict(s.PC)
		e.gshare.Update(s.PC, actualTaken)
		if pred != actualTaken {
			e.stats.Mispredicts++
			if e.MispredictHook != nil {
				e.MispredictHook(s.PC, "cond")
			}
			e.stallUntil(resolveAt, BinMispred)
			return true
		}
		if actualTaken {
			// Correctly predicted taken: need the target from the BTB.
			if tgt, ok := e.btb.Lookup(s.PC); !ok || tgt != s.NextPC {
				e.stats.BTBMisses++
				if e.MispredictHook != nil {
					e.MispredictHook(s.PC, "btb")
				}
				e.btb.Update(s.PC, s.NextPC)
				e.stallUntil(resolveAt, BinMispred)
				return true
			}
			return true // group ends at a taken branch
		}
		return false
	case x86.OpJMP, x86.OpCALL:
		if in.Op == x86.OpCALL {
			e.ras.Push(s.PC + uint32(in.Len))
		}
		if in.Dst.Kind == x86.KindImm {
			return true // direct: target known at decode
		}
		// Indirect: BTB prediction.
		if tgt, ok := e.btb.Lookup(s.PC); !ok || tgt != s.NextPC {
			e.stats.BTBMisses++
			e.btb.Update(s.PC, s.NextPC)
			e.stallUntil(resolveAt, BinMispred)
		}
		return true
	case x86.OpRET:
		if e.ras.Pop() != s.NextPC {
			e.stats.Mispredicts++
			if e.MispredictHook != nil {
				e.MispredictHook(s.PC, "ret")
			}
			e.stallUntil(resolveAt, BinMispred)
		}
		return true
	}
	return false
}
