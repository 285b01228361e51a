package pipeline

import (
	"time"

	"repro/internal/cache"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// SetTelemetry attaches a collector to the engine under the given run
// id (from Collector.NewRun). The collector deliberately lives on the
// Engine, not on Config: Config must remain a plain value struct — its
// %#v fingerprint is the memo key (see fingerprint.go) and a pointer
// field would poison it.
//
// Attaching wires the frame constructor, the frame/trace caches, and
// the dispatch path. Detach by passing nil.
func (e *Engine) SetTelemetry(tel *telemetry.Collector, run int) {
	e.tel = tel
	e.telRun = run
	if e.cons != nil {
		e.cons.Tel = tel
		e.cons.TelRun = run
		if tel != nil {
			e.cons.Now = func() uint64 { return e.cycle }
		} else {
			e.cons.Now = nil
		}
	}
	if tel != nil && e.telInsertAt == nil {
		e.telInsertAt = make(map[uint32]uint64)
	}
	wireCacheHooks(e, e.frames)
	wireCacheHooks(e, e.traces)
}

// Probe observes the engine's frame lifecycle, one method per event:
// retired slots, frame construction, frame-cache fetch and commit,
// optimizer removals and pass invocations, cache evictions, and every
// charged fetch cycle. Each method fires at the call site of the Stats
// counter it mirrors, so over an attached window a probe's totals equal
// the window's Stats exactly: conservation by construction, not by
// bookkeeping. All methods are called on the engine goroutine.
type Probe interface {
	// SlotRetired sees every retired x86 instruction in retirement order.
	// fromFrame marks slots covered by a committed frame or trace-cache
	// line; uopsExecuted is the post-optimization micro-op count retired
	// with the slot (0 on the frame path, whose optimized body arrives in
	// bulk via FrameRetired).
	SlotRetired(s Slot, fromFrame bool, uopsExecuted int)
	// FrameBuilt fires once per frame the constructor deposits (sums to
	// Stats.FramesConstructed).
	FrameBuilt()
	// FrameHit fires once per frame-cache fetch (sums to
	// Stats.FrameFetches).
	FrameHit()
	// FrameRetired reports a committed frame's executed micro-ops (with
	// the decoded paths' uopsExecuted, sums to Stats.UOpsRetired).
	FrameRetired(uops int)
	// OptRemoved reports the micro-ops one optimizer run removed (sums to
	// Stats.Opt.Removed()).
	OptRemoved(removed int)
	// Pass reports one optimizer pass invocation that changed something:
	// the micro-ops it invalidated and those it rewrote in place. It fires
	// within the optimizer run whose OptRemoved follows, so the summed
	// killed also equals Stats.Opt.Removed().
	Pass(pass string, killed, rewritten int)
	// Evict fires once per frame/trace-cache eviction.
	Evict()
	// CycleCharge attributes n fetch cycles at guest PC pc to bin. The
	// engine's only two cycle-charging paths (tick and stallUntil) call
	// it, so the totals equal Stats.Cycles and Stats.Bins.
	CycleCharge(pc uint32, bin Bin, n uint64)
}

// NopProbe implements every Probe method as a no-op. Probes embed it and
// override only the events they fold.
type NopProbe struct{}

func (NopProbe) SlotRetired(Slot, bool, int)     {}
func (NopProbe) FrameBuilt()                     {}
func (NopProbe) FrameHit()                       {}
func (NopProbe) FrameRetired(int)                {}
func (NopProbe) OptRemoved(int)                  {}
func (NopProbe) Pass(string, int, int)           {}
func (NopProbe) Evict()                          {}
func (NopProbe) CycleCharge(uint32, Bin, uint64) {}

// SetProbe attaches the engine's probe. Like SetTelemetry it lives on
// the Engine, not Config, so the memo-key fingerprint stays a pure
// value; attach after warmup so the probe covers exactly the measured
// window ResetStats draws. Detach by passing nil: each hook site then
// pays one nil check.
func (e *Engine) SetProbe(p Probe) {
	e.probe = p
	wireCacheHooks(e, e.frames)
	wireCacheHooks(e, e.traces)
}

// wireCacheHooks installs (or removes) the UOpCache observation hooks
// for whichever of telemetry and the probe is attached. A
// package-level generic function because methods cannot have type
// parameters.
func wireCacheHooks[T any](e *Engine, c *cache.UOpCache[T]) {
	if c == nil {
		return
	}
	if e.tel == nil && e.probe == nil {
		c.OnInsert, c.OnEvict, c.OnHit = nil, nil, nil
		return
	}
	c.OnInsert = func(pc uint32, size int) {
		if e.tel == nil || !e.tel.Enabled() {
			return
		}
		e.telInsertAt[pc] = e.cycle
		e.tel.CacheInsert(e.telRun, e.cycle, pc, size)
	}
	c.OnEvict = func(pc uint32, size int) {
		if e.probe != nil {
			e.probe.Evict()
		}
		if e.tel == nil || !e.tel.Enabled() {
			return
		}
		var residency uint64
		if t0, ok := e.telInsertAt[pc]; ok {
			residency = e.cycle - t0
			delete(e.telInsertAt, pc)
		}
		e.tel.CacheEvict(e.telRun, e.cycle, pc, size, residency)
	}
	c.OnHit = func(pc uint32) {
		if e.tel != nil {
			e.tel.CacheHit(e.telRun, e.cycle, pc)
		}
	}
}

// SetPassRecorder attaches a wall-clock pass-timing recorder to the
// optimizer path (see opt.TimedPassRecorder). Like SetTelemetry it
// lives on the Engine, not Config, so the memo-key fingerprint stays a
// value. Detach by passing nil.
func (e *Engine) SetPassRecorder(r opt.TimedPassRecorder) {
	e.passRec = r
}

// passFan is the engine's optimizer pass recorder: it forwards each
// changed pass invocation to telemetry attribution, to the probe, and
// to the pass-timing recorder when one is attached. It does not
// implement opt.TimedPassRecorder, so an untimed run never makes the
// optimizer pay the two time.Now calls per pass; timedPassFan adds the
// extension only while a timing recorder is attached.
type passFan struct{ e *Engine }

func (f passFan) RecordPass(frameID uint64, pass string, killed, rewritten int) {
	f.e.tel.RecordPass(frameID, pass, killed, rewritten)
	if f.e.probe != nil {
		f.e.probe.Pass(pass, killed, rewritten)
	}
	if f.e.passRec != nil {
		f.e.passRec.RecordPass(frameID, pass, killed, rewritten)
	}
}

type timedPassFan struct{ passFan }

func (f timedPassFan) RecordPassTimed(frameID uint64, pass string, killed, rewritten int, d time.Duration) {
	f.e.passRec.RecordPassTimed(frameID, pass, killed, rewritten, d)
}

// optRecorder returns the pass recorder for one optimizer run: nil when
// nobody listens, so the optimizer skips its per-pass measurement.
func (e *Engine) optRecorder() opt.PassRecorder {
	switch {
	case e.passRec != nil:
		return timedPassFan{passFan{e}}
	case e.probe != nil || e.tel.HasAttribution():
		return passFan{e}
	}
	return nil
}

// CloseTelemetry flushes end-of-run state: frames still resident in
// the cache contribute their residency-so-far to the histogram (no
// eviction event is fabricated — the frames are still cached). Call
// once per run, after the last Run/RunContext.
func (e *Engine) CloseTelemetry() {
	if e.tel == nil {
		return
	}
	for _, t0 := range e.telInsertAt {
		e.tel.CacheResident(e.cycle - t0)
	}
	e.telInsertAt = make(map[uint32]uint64)
}
