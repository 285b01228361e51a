package pipeline

import (
	"time"

	"repro/internal/cache"
	"repro/internal/opt"
)

// Probe observes the engine's frame lifecycle, one method per event:
// retired slots, frame construction, optimization, caching, fetch and
// commit or abort, trace-cache fetches, and every charged fetch cycle.
// Each counting event fires at the call site of the Stats counter it
// mirrors, so over an attached window a probe's totals equal the
// window's Stats exactly: conservation by construction, not by
// bookkeeping. Lifecycle events carry the engine cycle they happen at,
// plus the frame's constructor id, start PC and size where one applies.
// All methods are called on the engine goroutine.
type Probe interface {
	// SlotRetired sees every retired x86 instruction in retirement order.
	// fromFrame marks slots covered by a committed frame or trace-cache
	// line; uopsExecuted is the post-optimization micro-op count retired
	// with the slot (0 on the frame path, whose optimized body arrives in
	// bulk via FrameRetired). s points into the engine's storage and is
	// valid only for the call; the entry it points to, for the run.
	SlotRetired(s *Rec, fromFrame bool, uopsExecuted int)
	// FrameBuilt fires once per frame the constructor deposits (sums to
	// Stats.FramesConstructed), with its length in micro-ops.
	FrameBuilt(cycle, id uint64, pc uint32, uops int)
	// FrameHit fires once per frame-cache fetch (sums to
	// Stats.FrameFetches), at the cycle the fetch starts.
	FrameHit(cycle, id uint64, pc uint32)
	// FrameRetired closes the fetch FrameHit opened, at the cycle the
	// frame leaves the fetch path. A committed frame reports its executed
	// micro-ops (with the decoded paths' uopsExecuted, the committed
	// reports sum to Stats.UOpsRetired); an aborted one reports the
	// micro-ops it fetched before rolling back.
	FrameRetired(cycle uint64, uops int, committed bool)
	// OptRemoved reports one optimizer run, which took the frame into an
	// optimizer slot at cycle for dwell cycles and shrank it from uopsIn
	// to uopsOut micro-ops (the differences sum to Stats.Opt.Removed()).
	OptRemoved(cycle, id uint64, pc uint32, uopsIn, uopsOut int, dwell uint64)
	// Pass reports one optimizer pass invocation that changed something:
	// the micro-ops it invalidated and those it rewrote in place. It fires
	// within the optimizer run whose OptRemoved follows, so the summed
	// killed also equals Stats.Opt.Removed().
	Pass(pass string, killed, rewritten int)
	// CacheInsert fires once per frame/trace-cache insertion.
	CacheInsert(cycle uint64, pc uint32, uops int)
	// Evict fires once per frame/trace-cache eviction, with the cycles
	// the entry stayed cached, counted from its insertion even when that
	// preceded the probe.
	Evict(cycle uint64, pc uint32, uops int, residency uint64)
	// Resident fires when the probe is replaced or detached, once per
	// entry still cached, with its residency so far. With Evict, every
	// entry cached during the window reports its residency exactly once.
	Resident(residency uint64)
	// FetchRetire reports one dispatched micro-op's fetch-to-retire
	// latency in cycles.
	FetchRetire(latency uint64)
	// AssertFired fires once per frame abort (sums to Stats.FrameAborts);
	// unsafe marks an unsafe-store conflict rather than a path
	// divergence.
	AssertFired(cycle, id uint64, pc uint32, unsafe bool)
	// TraceFetch reports one trace-cache line fetch, from its start cycle
	// to the cycle fetch left the line.
	TraceFetch(start, end uint64, pc uint32, uops int)
	// CycleCharge attributes n fetch cycles at guest PC pc to bin. The
	// engine's only two cycle-charging paths (tick and stallUntil) call
	// it, so the totals equal Stats.Cycles and Stats.Bins.
	CycleCharge(pc uint32, bin Bin, n uint64)
}

// NopProbe implements every Probe method as a no-op. Probes embed it and
// override only the events they fold.
type NopProbe struct{}

func (NopProbe) SlotRetired(*Rec, bool, int)                         {}
func (NopProbe) FrameBuilt(uint64, uint64, uint32, int)              {}
func (NopProbe) FrameHit(uint64, uint64, uint32)                     {}
func (NopProbe) FrameRetired(uint64, int, bool)                      {}
func (NopProbe) OptRemoved(uint64, uint64, uint32, int, int, uint64) {}
func (NopProbe) Pass(string, int, int)                               {}
func (NopProbe) CacheInsert(uint64, uint32, int)                     {}
func (NopProbe) Evict(uint64, uint32, int, uint64)                   {}
func (NopProbe) Resident(uint64)                                     {}
func (NopProbe) FetchRetire(uint64)                                  {}
func (NopProbe) AssertFired(uint64, uint64, uint32, bool)            {}
func (NopProbe) TraceFetch(uint64, uint64, uint32, int)              {}
func (NopProbe) CycleCharge(uint32, Bin, uint64)                     {}

// SetProbes attaches the engine's probes, its only observers, which
// see every event in the order given; the engine keeps ps as its list.
// Probes live on the Engine, not Config, so Config, part of the
// run-memo key, stays a pure value; attach after warmup so the probes
// cover exactly the measured window ResetStats draws. Replacing or
// detaching (calling with no probes) ends the outgoing probes' window:
// every entry still cached reports its residency to each through
// Resident. Detached, each hook site pays one length check.
func (e *Engine) SetProbes(ps ...Probe) {
	for _, p := range e.probes {
		for _, t0 := range e.insertedAt {
			p.Resident(e.cycle - t0)
		}
	}
	e.probes = ps
}

// watchCache installs the UOpCache hooks that stamp every entry's
// insertion cycle, whether or not a probe is attached, and report
// insertions and evictions to the probes. A package-level generic
// function because methods cannot have type parameters.
func watchCache[T any](e *Engine, c *cache.UOpCache[T]) {
	c.OnInsert = func(pc uint32, uops int) {
		e.insertedAt[pc] = e.cycle
		for _, p := range e.probes {
			p.CacheInsert(e.cycle, pc, uops)
		}
	}
	c.OnEvict = func(pc uint32, uops int) {
		for _, p := range e.probes {
			p.Evict(e.cycle, pc, uops, e.cycle-e.insertedAt[pc])
		}
		delete(e.insertedAt, pc)
	}
}

// SetPassRecorder attaches a wall-clock pass-timing recorder to the
// optimizer path (see opt.TimedPassRecorder). Like SetProbes it lives on
// the Engine, not Config, so the run-memo key stays a value.
// Detach by passing nil.
func (e *Engine) SetPassRecorder(r opt.TimedPassRecorder) {
	e.passRec = r
}

// passFan is the engine's optimizer pass recorder: it forwards each
// changed pass invocation to each probe. It does not implement
// opt.TimedPassRecorder, so an untimed run never makes the optimizer
// pay the two time.Now calls per pass; timedPassFan adds the extension
// only while a timing recorder is attached.
type passFan struct{ e *Engine }

func (f passFan) RecordPass(_ uint64, pass string, killed, rewritten int) {
	for _, p := range f.e.probes {
		p.Pass(pass, killed, rewritten)
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
	case len(e.probes) != 0:
		return passFan{e}
	}
	return nil
}
