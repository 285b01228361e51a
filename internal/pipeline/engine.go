package pipeline

import (
	"context"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/frame"
	"repro/internal/opt"
	"repro/internal/predict"
	"repro/internal/tracing"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

// Rec is one retired x86 instruction as the engine holds it: the
// decode-table entry its PC shares with every other retirement of it,
// and its own dynamic successor and memory addresses (in flow order).
type Rec struct {
	*translate.Entry
	NextPC   uint32
	MemAddrs []uint32
}

// Taken reports whether the instruction redirected control flow.
func (r *Rec) Taken() bool { return r.NextPC != r.PC+uint32(r.Inst.Len) }

// Source supplies the correct-path instruction stream as records. All
// of a source's entries come from one decode table.
type Source interface {
	// NextInto overwrites every field of r with the next retired
	// instruction, or returns false at the end.
	NextInto(r *Rec) bool
}

// Slot is one retired x86 instruction in the by-value form a Stream
// offers: its decoded form, micro-op flow, dynamic successor and memory
// addresses (in flow order).
type Slot struct {
	PC       uint32
	Inst     x86.Inst
	UOps     []uop.UOp
	NextPC   uint32
	MemAddrs []uint32
}

// Stream supplies the correct-path instruction stream as slots.
type Stream interface {
	// Next returns the next retired instruction, or ok=false at the end.
	Next() (Slot, bool)
}

// nextAdapter is the Source over a Stream: each PC's first slot makes
// its entry in a map-only table, which every later slot at the PC
// shares.
type nextAdapter struct {
	src Stream
	tab *translate.Table
}

func (a *nextAdapter) NextInto(r *Rec) bool {
	s, ok := a.src.Next()
	if !ok {
		return false
	}
	i := a.tab.Find(s.PC)
	if i < 0 {
		i = a.tab.Add(translate.Entry{PC: s.PC, Inst: s.Inst, UOps: s.UOps})
	}
	r.Entry, r.NextPC, r.MemAddrs = a.tab.Entry(i), s.NextPC, s.MemAddrs
	return true
}

// Engine is the cycle-level timing model.
type Engine struct {
	cfg  Config
	mode Mode
	src  Source

	// The stream's records, filled in place into a head-indexed deque:
	// consumption advances pendingLo, and a record stays where it was
	// filled until pull rewinds the drained deque (see peek and pull).
	pending   []Rec
	pendingLo int

	cycle uint64
	stats Stats
	base  Stats // snapshot at ResetStats

	// Dataflow state: availability time of each architectural register,
	// laid out as the ready table translate.DispOp indexes.
	regReady [translate.ReadySlots]uint64

	// Functional units: next-free cycle per unit, per class (uop.Op.Class).
	fu [uop.NumClasses][]uint64

	// In-order retirement: FIFO of retire times of in-flight micro-ops,
	// plus a ring of the last Width retire times for the width constraint.
	// The FIFO is a ring too, of a power-of-two length no less than
	// WindowSize+Width: windowStall admits a group of at most Width
	// micro-ops only while at most WindowSize-Width are in flight. Its
	// live entries, monotonic nondecreasing, are [inflightLo, inflightHi)
	// masked by the length.
	inflight   []uint64
	inflightLo uint
	inflightHi uint
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
	// storeBufSweep tracks the last eviction pass so the table stays
	// bounded over long runs.
	storeBuf      storeBuffer
	storeBufSweep uint64

	// rePLay engine (RP/RPO modes).
	cons       *frame.Constructor
	frames     *cache.UOpCache[*cachedFrame]
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

	// insertedAt stamps each frame/trace-cache entry's insertion cycle,
	// so evictions report true residency whenever probes attached.
	insertedAt map[uint32]uint64

	// The engine's probes in call order (see SetProbes); empty unless
	// attached, so the detached cost at every hook site is one length
	// check.
	probes []Probe
	// profPC is the guest PC the next charged fetch cycles are
	// attributed to; maintained (via profAt) only while probes are set.
	profPC uint32

	// Wall-clock pass timing (see SetPassRecorder); nil unless a span
	// trace is being assembled for this run.
	passRec opt.TimedPassRecorder

	// fetchFrame scratch, reused across fetches (the engine is
	// single-goroutine, and RetireFrame copies out of these buffers
	// before returning).
	scratchReady []uint64
	scratchAddrs []uint32
	// scratchPos is compileFrame's buffer-index to issue-position map.
	scratchPos []int32
	// activeSrc is the frame being fetched right now; cache-eviction
	// recycling skips it (an Invalidate mid-fetch must not release
	// buffers the fetch is still reading), and pull keeps the deque's
	// slots in place while it is set.
	activeSrc *frame.Frame
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

// New returns an engine in the given mode over a slot stream, read
// through nextAdapter.
func New(cfg Config, mode Mode, src Stream) *Engine {
	return NewFrom(cfg, mode, &nextAdapter{src: src, tab: translate.NewTable(0, 0)})
}

// NewFrom returns an engine in the given mode over the instruction
// stream.
func NewFrom(cfg Config, mode Mode, src Source) *Engine {
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
		storeBuf:   newStoreBuffer(),
		inflight:   make([]uint64, 1<<bits.Len(uint(cfg.WindowSize+cfg.Width-1))),
		retireRing: make([]uint64, cfg.Width),
		insertedAt: make(map[uint32]uint64),
	}
	e.fu[uop.ClassSimple] = make([]uint64, cfg.SimpleALUs)
	e.fu[uop.ClassComplex] = make([]uint64, cfg.ComplexALUs)
	e.fu[uop.ClassLSU] = make([]uint64, cfg.LSUs)
	switch mode {
	case ModeRePLay, ModeRePLayOpt:
		e.frames = cache.NewUOpCache[*cachedFrame](cfg.FrameCacheUOps)
		e.frames.Recycle = e.recycleFrame
		watchCache(e, e.frames)
		e.optSlots = make([]uint64, cfg.OptPipeDepth)
		e.growCap = make(map[uint32]int)
		e.abortRuns = make(map[uint32]int)
		e.cons = frame.NewConstructor(cfg.FrameCfg, e.depositFrame)
	case ModeTraceCache:
		e.traces = cache.NewUOpCache[*traceEntry](cfg.TraceCacheUOps)
		watchCache(e, e.traces)
		e.fill = &traceFill{}
	}
	return e
}

// recycleFrame returns a displaced frame-cache entry's buffers — its
// program, optimized frame and source frame — to their pools (the
// cache's Recycle hook: capacity eviction, same-PC replacement, and
// invalidation). Recycling is skipped for the frame currently being
// fetched, which an Invalidate or replacement can displace while the
// fetch still reads it; that entry is left to the garbage collector.
func (e *Engine) recycleFrame(c *cachedFrame) {
	if c == nil || c.of.Source == e.activeSrc {
		return
	}
	src := c.of.Source
	opt.PutOptFrame(c.of)
	frame.PutFrame(src)
	putEntry(c)
}

// Close hands the engine's fixed tables to the next engine: the caches,
// the gshare table and the BTB are cleared into their pools, and so is
// the frame constructor's branch table. It also returns the constructor
// frames the engine still holds — cached, queued for or in the
// optimizer — to the frame pool, for the next engine's constructor.
// Their optimized forms and programs are left to the collector: pooled
// too, they stayed live across a GC cycle for few reuses. Call Close once
// the run's Stats are read; Stats stays readable, but the engine must
// not run again. A second Close does nothing.
func (e *Engine) Close() {
	if e.gshare == nil {
		return
	}
	cache.Put(e.icache)
	cache.Put(e.l1d)
	cache.Put(e.l2)
	predict.PutGshare(e.gshare)
	predict.PutBTB(e.btb)
	e.icache, e.l1d, e.l2, e.gshare, e.btb = nil, nil, nil, nil, nil
	if e.cons != nil {
		e.cons.Close()
	}
	if e.frames == nil {
		return
	}
	for pc := range e.insertedAt {
		if c, ok := e.frames.Lookup(pc); ok {
			frame.PutFrame(c.of.Source)
		}
	}
	for _, p := range e.optPending {
		frame.PutFrame(p.of.Source)
	}
	for _, f := range e.optQueue {
		frame.PutFrame(f)
	}
	e.optPending, e.optQueue = nil, nil
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

// peek returns the next correct-path instruction without consuming it,
// or nil at the end of the stream. The pointer is valid until the next
// peek, which may pull and so move the deque. The record itself stays in
// place until the drained deque is rewound (see pull): a caller may read
// the record it just consumed until it peeks again, and fetchFrame may
// read every record from its frame's start up to the head until it
// returns.
func (e *Engine) peek() *Rec {
	if e.pendingLo < len(e.pending) {
		return &e.pending[e.pendingLo]
	}
	return e.pull()
}

// pull fills the stream's next record into the drained deque. Outside a
// frame fetch the deque is first rewound, so the backing array is
// reused; during one it only grows, keeping the frame's records in place
// until fetchFrame returns. It is kept out of peek so that peek inlines
// at its call sites.
func (e *Engine) pull() *Rec {
	if e.activeSrc == nil {
		e.pending, e.pendingLo = e.pending[:0], 0
	}
	// Extend without zeroing the record: NextInto overwrites every field.
	n := len(e.pending)
	if n < cap(e.pending) {
		e.pending = e.pending[:n+1]
	} else {
		e.pending = append(e.pending, Rec{})
	}
	s := &e.pending[n]
	if !e.src.NextInto(s) {
		e.pending = e.pending[:n]
		return nil
	}
	return s
}

// next consumes the instruction the last peek returned. It stays in
// place; see peek for how long.
func (e *Engine) next() { e.pendingLo++ }

// stallUntil advances the clock to t, charging the idle fetch cycles to
// the bin in one step. Together with tick these are the only writers of
// Stats.Bins, which is what makes the cycle profiler's attribution
// conservation-exact: every charged cycle passes through here.
func (e *Engine) stallUntil(t uint64, bin Bin) {
	if t > e.cycle {
		n := t - e.cycle
		e.stats.Bins[bin] += n
		e.cycle = t
		for _, p := range e.probes {
			p.CycleCharge(e.profPC, bin, n)
		}
	}
}

// tick charges the current fetch cycle to the bin and advances the clock.
func (e *Engine) tick(bin Bin) {
	e.stats.Bins[bin]++
	e.cycle++
	for _, p := range e.probes {
		p.CycleCharge(e.profPC, bin, 1)
	}
}

// profAt notes the guest PC responsible for subsequently charged fetch
// cycles. One length check when no probe is attached.
func (e *Engine) profAt(pc uint32) {
	if len(e.probes) != 0 {
		e.profPC = pc
	}
}

// popRetired drops retired micro-ops from the in-flight window.
func (e *Engine) popRetired() {
	mask := uint(len(e.inflight) - 1)
	for e.inflightLo != e.inflightHi && e.inflight[e.inflightLo&mask] <= e.cycle {
		e.inflightLo++
	}
}

// windowStall blocks fetch (charging Stall cycles) until the scheduling
// window has room for a fetch group.
func (e *Engine) windowStall() {
	for {
		e.popRetired()
		n := int(e.inflightHi - e.inflightLo)
		if n+e.cfg.Width <= e.cfg.WindowSize {
			return
		}
		if n == 0 {
			panic("pipeline: a fetch group of Width micro-ops does not fit an empty WindowSize window")
		}
		e.stallUntil(e.inflight[e.inflightLo&uint(len(e.inflight)-1)], BinStall)
	}
}

// fuPick returns the earliest-free unit of a class (the first of equals)
// and the cycle a µop ready at ready can issue on it. The scan keeps a
// running minimum without indexing back into units, so it compiles to
// conditional moves.
func fuPick(units []uint64, ready uint64) (int, uint64) {
	best, bv := 0, units[0]
	for i, v := range units[1:] {
		if v < bv {
			best, bv = i+1, v
		}
	}
	return best, max(ready, bv)
}

// storeForwardWindow is the cycle span within which an in-flight store
// can still forward its data to a later load.
const storeForwardWindow = 256

// evictStaleStores drops store-buffer entries too old to ever forward
// again. Without it the table only grows — an unbounded leak over long
// simulations. Swept every few windows to keep the amortized cost nil.
func (e *Engine) evictStaleStores() {
	if e.cycle < e.storeBufSweep+4*storeForwardWindow {
		return
	}
	e.storeBufSweep = e.cycle
	e.storeBuf.sweep(e.cycle)
}

// loadLatency models the data-cache hierarchy and store-buffer bypass for
// a load issued at issueAt. It returns the completion time.
func (e *Engine) loadLatency(addr uint32, issueAt uint64) uint64 {
	if done, ok := e.storeBuf.get(addr); ok && done+storeForwardWindow > issueAt {
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

// dispatchOp models one micro-op: rename, schedule, execute, retire.
// units are its class's functional units, lat its execution latency and
// flags its dispatch flags; ready is the dataflow availability of its
// sources, fetchAt the cycle it was fetched. Returns the completion
// (writeback) time. Both fetch paths run this one body with the facts
// compiled for them: the decoded path its entry's Ops, the frame path
// its program.
func (e *Engine) dispatchOp(units []uint64, lat uint64, flags uint8, ready, fetchAt uint64, memAddr uint32, hasAddr bool) uint64 {
	earliest := fetchAt + uint64(e.cfg.FrontLatency)
	if ready < earliest {
		ready = earliest
	}
	unit, issueAt := fuPick(units, ready)
	if flags&uop.FlagControl != 0 {
		// Deep pipe: a control micro-op cannot resolve before the minimum
		// branch resolution depth.
		if min := fetchAt + uint64(e.cfg.MinBranchResolve); issueAt < min {
			issueAt = min
		}
	}
	units[unit] = issueAt + 1

	var doneAt uint64
	switch {
	case flags&uop.FlagLoad != 0 && hasAddr:
		doneAt = e.loadLatency(memAddr, issueAt)
	case flags&uop.FlagStore != 0:
		doneAt = issueAt + 1
		if hasAddr {
			e.l1d.Access(memAddr)
			e.storeBuf.put(memAddr, doneAt)
		}
	default:
		doneAt = issueAt + lat
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
	if e.ringPos++; e.ringPos == len(e.retireRing) {
		e.ringPos = 0
	}
	e.lastRetire = retireAt
	e.inflight[e.inflightHi&uint(len(e.inflight)-1)] = retireAt
	e.inflightHi++
	for _, p := range e.probes {
		p.FetchRetire(retireAt - fetchAt)
	}
	return doneAt
}

// issueSlot dispatches a decoded-path instruction's compiled micro-ops
// in a fetch group that left the front end at fetchAt, pairing memory
// micro-ops with the record's addresses in order, then retires it: the
// committed-path accounting (fromTrace marks trace-cache coverage), the
// probes, and the frame constructor or trace fill unit. It returns the
// completion time of the instruction's control micro-op, which is when
// a misprediction resolves.
func (e *Engine) issueSlot(s *Rec, fetchAt uint64, fromTrace bool) (brDone uint64) {
	mi := 0
	ready := &e.regReady
	for _, o := range s.Ops {
		var addr uint32
		hasAddr := false
		if o.Flags&(uop.FlagLoad|uop.FlagStore) != 0 {
			if mi < len(s.MemAddrs) {
				addr = s.MemAddrs[mi]
				hasAddr = true
			}
			mi++
		}
		// Dataflow through the arch-register scoreboard.
		r := max(ready[o.SrcA], ready[o.SrcB], ready[o.SrcF])
		done := e.dispatchOp(e.fu[o.Class], uint64(o.Lat), o.Flags, r, fetchAt, addr, hasAddr)
		ready[o.Dst] = done
		ready[o.DstF] = done
		if o.Flags&uop.FlagControl != 0 {
			brDone = done
		}
	}
	// Every micro-op of a decoded-path instruction executes, so the
	// retired and baseline counts agree.
	n := uint64(len(s.Ops))
	e.stats.X86Retired++
	e.stats.UOpsRetired += n
	e.stats.LoadsRetired += uint64(s.Loads)
	e.stats.UOpsBaseline += n
	e.stats.LoadsBaseline += uint64(s.Loads)
	if fromTrace {
		e.stats.CoveredBaseline += n
	}
	for _, p := range e.probes {
		p.SlotRetired(s, fromTrace, len(s.Ops))
	}
	if e.cons != nil {
		e.cons.Retire(s.Entry, s.NextPC, s.MemAddrs)
	}
	if e.fill != nil {
		e.fillTrace(s)
	}
	return brDone
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
		s := e.peek()
		if s == nil {
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
			if c, hit := e.frames.Lookup(s.PC); hit {
				e.fetchFrame(c)
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
	if len(e.probes) != 0 {
		if s := e.peek(); s != nil {
			e.profPC = s.PC
		}
	}
	e.switchTo(srcIC)
	e.windowStall()

	s := e.peek()
	if s == nil {
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
		s := e.peek()
		if s == nil {
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
		brDone := e.issueSlot(s, fetchAt, false)

		// Control-flow handling.
		if stop := e.handleControl(s, brDone); stop {
			return
		}
	}
}

// trainPredictors updates prediction state for an instruction retired
// inside a committed frame. Frame-internal control needs no prediction,
// but training at retirement keeps the predictors consistent for the
// decoded path (as retirement-trained hardware predictors are).
func (e *Engine) trainPredictors(s *Rec) {
	switch s.Ctl {
	case translate.CtlCond:
		e.gshare.Update(s.PC, s.Taken())
	case translate.CtlCall:
		e.ras.Push(s.PC + uint32(s.Inst.Len))
	case translate.CtlCallInd:
		e.ras.Push(s.PC + uint32(s.Inst.Len))
		e.btb.Update(s.PC, s.NextPC)
	case translate.CtlJumpInd:
		e.btb.Update(s.PC, s.NextPC)
	case translate.CtlRet:
		e.ras.Pop()
	}
}

// handleControl models prediction for a decoded-path instruction and
// returns whether the fetch group must end.
func (e *Engine) handleControl(s *Rec, resolveAt uint64) bool {
	e.profAt(s.PC) // mispredict-recovery stalls belong to the branch
	switch s.Ctl {
	case translate.CtlCond:
		actualTaken := s.Taken()
		e.stats.CondBranches++
		pred := e.gshare.Predict(s.PC)
		e.gshare.Update(s.PC, actualTaken)
		if pred != actualTaken {
			e.stats.Mispredicts++
			e.stallUntil(resolveAt, BinMispred)
			return true
		}
		if actualTaken {
			// Correctly predicted taken: need the target from the BTB.
			if tgt, ok := e.btb.Lookup(s.PC); !ok || tgt != s.NextPC {
				e.stats.BTBMisses++
				e.btb.Update(s.PC, s.NextPC)
				e.stallUntil(resolveAt, BinMispred)
				return true
			}
			return true // group ends at a taken branch
		}
		return false
	case translate.CtlJump, translate.CtlCall, translate.CtlJumpInd, translate.CtlCallInd:
		if s.Ctl.IsCall() {
			e.ras.Push(s.PC + uint32(s.Inst.Len))
		}
		if !s.Ctl.IsIndirect() {
			return true // direct: target known at decode
		}
		// Indirect: BTB prediction.
		if tgt, ok := e.btb.Lookup(s.PC); !ok || tgt != s.NextPC {
			e.stats.BTBMisses++
			e.btb.Update(s.PC, s.NextPC)
			e.stallUntil(resolveAt, BinMispred)
		}
		return true
	case translate.CtlRet:
		if e.ras.Pop() != s.NextPC {
			e.stats.Mispredicts++
			e.stallUntil(resolveAt, BinMispred)
		}
		return true
	}
	return false
}
