// Package telemetry holds the frame-lifecycle consumers that ride the
// engine's probe bus (pipeline.Probe): fixed-bucket histograms exported
// from replayd's /metrics, per-pass attribution tables, and an opt-in
// ring of Chrome trace_event records. Each is a sim.Collector: attach it
// through sim.Options.Probes and it observes every engine a run creates
// over exactly the measured window.
//
// The layer sits below internal/stats on purpose: stats renders
// (tables, bars, Prometheus text), telemetry collects. The engine never
// formats anything; consumers (replaysim -attr, replayd /metrics, trace
// export) pull snapshots and choose a renderer.
package telemetry

import (
	"sort"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/stats"
)

// HistogramSet holds the four lifecycle histograms. It is shared: every
// replayd job feeds the daemon's one set, so /metrics aggregates across
// jobs.
type HistogramSet struct {
	FrameUOps      *stats.Histogram // frame length at construction, in uops
	OptDwell       *stats.Histogram // optimizer occupancy per frame, in cycles
	CacheResidency *stats.Histogram // frame-cache residency at eviction or end of run, in cycles
	FetchRetire    *stats.Histogram // per-uop fetch-to-retire latency, in cycles
}

// NewHistogramSet allocates the lifecycle histograms with bucket
// bounds sized to the paper's frame regime (frames of 8..256 uops,
// optimizer dwell of ~10 cycles/uop).
func NewHistogramSet() *HistogramSet {
	return &HistogramSet{
		FrameUOps: stats.NewHistogram("replay_frame_uops",
			"Frame length in micro-ops at construction",
			8, 16, 32, 64, 128, 192, 256),
		OptDwell: stats.NewHistogram("replay_opt_dwell_cycles",
			"Cycles a frame occupies an optimizer slot",
			64, 256, 1024, 2560, 5120, 10240),
		CacheResidency: stats.NewHistogram("replay_frame_cache_residency_cycles",
			"Cycles a frame stayed in the frame cache, sampled at eviction or end of run",
			1024, 16384, 65536, 262144, 1048576),
		FetchRetire: stats.NewHistogram("replay_fetch_retire_cycles",
			"Per-slot latency from fetch to retirement",
			4, 8, 16, 32, 64, 128, 256),
	}
}

// All returns the histograms in a stable order for exposition.
func (h *HistogramSet) All() []*stats.Histogram {
	return []*stats.Histogram{h.FrameUOps, h.OptDwell, h.CacheResidency, h.FetchRetire}
}

// Histograms is the collector feeding a HistogramSet. It only samples
// distributions, so it lets the run memo serve runs and needs no loop
// stack (see SamplesOnly).
type Histograms struct {
	set     *HistogramSet
	traceID string
}

// NewHistograms returns a collector observing into set. A non-empty
// traceID is stamped as the exemplar on every bucket its samples land
// in, linking /metrics back to the request's stored span trace; the
// exemplar's time is the time its run folded.
func NewHistograms(set *HistogramSet, traceID string) *Histograms {
	return &Histograms{set: set, traceID: traceID}
}

// SamplesOnly marks the collector as a sim.Sampler: a run served from
// the memo costs it samples, not correctness, so attaching it keeps the
// memo on and memo hits add no samples. Its probe never reads the loop
// stack.
func (h *Histograms) SamplesOnly() {}

// Attach returns the probe for one engine run. The probe counts into
// its own tallies, one per histogram, with no shared writes; the
// returned func folds them into the shared set in one batch (a second
// call adds nothing), so the run's samples reach the set when it ends.
func (h *Histograms) Attach(string, int, *reuse.LoopStack) (pipeline.Probe, func()) {
	p := &histProbe{
		frameUOps:      h.set.FrameUOps.Tally(),
		optDwell:       h.set.OptDwell.Tally(),
		cacheResidency: h.set.CacheResidency.Tally(),
		fetchRetire:    h.set.FetchRetire.Tally(),
	}
	return p, func() {
		for _, t := range []*stats.Tally{p.frameUOps, p.optDwell, p.cacheResidency, p.fetchRetire} {
			t.Fold(h.traceID)
		}
	}
}

type histProbe struct {
	pipeline.NopProbe
	frameUOps, optDwell, cacheResidency, fetchRetire *stats.Tally
}

func (p *histProbe) FrameBuilt(_, _ uint64, _ uint32, uops int) {
	p.frameUOps.Observe(uint64(uops))
}

func (p *histProbe) OptRemoved(_, _ uint64, _ uint32, _, _ int, dwell uint64) {
	p.optDwell.Observe(dwell)
}

func (p *histProbe) Evict(_ uint64, _ uint32, _ int, residency uint64) {
	p.cacheResidency.Observe(residency)
}

func (p *histProbe) Resident(residency uint64) {
	p.cacheResidency.Observe(residency)
}

func (p *histProbe) FetchRetire(latency uint64) {
	p.fetchRetire.Observe(latency)
}

// PassStat is one row of the attribution table: what a named optimizer
// pass did across all frames it touched.
type PassStat struct {
	Pass      string // pass name (nop, cp, ra, cse, cse-load, sf, assert, dce)
	Calls     uint64 // invocations that changed something
	Killed    uint64 // uops invalidated by the pass
	Rewritten uint64 // uops rewritten in place (folds, reassociations, load conversions)
}

// PassOrder is the canonical display order for attribution rows; it
// mirrors the sequence Optimize runs the passes in.
var PassOrder = []string{"nop", "cp", "ra", "cse", "cse-load", "sf", "assert", "dce"}

// Attribution is the collector building the per-pass table.
type Attribution struct {
	mu     sync.Mutex
	passes map[string]*PassStat
}

// NewAttribution returns an empty attribution table.
func NewAttribution() *Attribution {
	return &Attribution{passes: map[string]*PassStat{}}
}

// Attach returns the probe for one engine run; pass invocations fold
// into the table as they happen.
func (a *Attribution) Attach(string, int, *reuse.LoopStack) (pipeline.Probe, func()) {
	return attrProbe{a: a}, func() {}
}

type attrProbe struct {
	pipeline.NopProbe
	a *Attribution
}

// Pass folds one changed optimizer pass invocation into the table.
func (p attrProbe) Pass(pass string, killed, rewritten int) {
	a := p.a
	a.mu.Lock()
	ps := a.passes[pass]
	if ps == nil {
		ps = &PassStat{Pass: pass}
		a.passes[pass] = ps
	}
	ps.Calls++
	ps.Killed += uint64(killed)
	ps.Rewritten += uint64(rewritten)
	a.mu.Unlock()
}

// Snapshot returns the per-pass table in canonical pass order (unknown
// passes follow alphabetically).
func (a *Attribution) Snapshot() []PassStat {
	a.mu.Lock()
	known := make(map[string]PassStat, len(a.passes))
	for name, ps := range a.passes {
		known[name] = *ps
	}
	a.mu.Unlock()

	out := make([]PassStat, 0, len(known))
	for _, name := range PassOrder {
		if ps, ok := known[name]; ok {
			out = append(out, ps)
			delete(known, name)
		}
	}
	rest := make([]PassStat, 0, len(known))
	for _, ps := range known {
		rest = append(rest, ps)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Pass < rest[j].Pass })
	return append(out, rest...)
}
