package telemetry_test

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// perEvent is the reference for Histograms: a collector whose probe
// observes every event straight into the shared set with ObserveEx.
type perEvent struct {
	set     *telemetry.HistogramSet
	traceID string
}

func (c perEvent) Attach(string, int, *reuse.LoopStack) (pipeline.Probe, func()) {
	return perEventProbe{c: c}, func() {}
}

type perEventProbe struct {
	pipeline.NopProbe
	c perEvent
}

func (p perEventProbe) FrameBuilt(_, _ uint64, _ uint32, uops int) {
	p.c.set.FrameUOps.ObserveEx(uint64(uops), p.c.traceID)
}

func (p perEventProbe) OptRemoved(_, _ uint64, _ uint32, _, _ int, dwell uint64) {
	p.c.set.OptDwell.ObserveEx(dwell, p.c.traceID)
}

func (p perEventProbe) Evict(_ uint64, _ uint32, _ int, residency uint64) {
	p.c.set.CacheResidency.ObserveEx(residency, p.c.traceID)
}

func (p perEventProbe) Resident(residency uint64) {
	p.c.set.CacheResidency.ObserveEx(residency, p.c.traceID)
}

func (p perEventProbe) FetchRetire(latency uint64) {
	p.c.set.FetchRetire.ObserveEx(latency, p.c.traceID)
}

// TestHistogramsFoldMatchesPerEvent: folding each engine run's tallies
// once gives the shared set the bucket counts, sum and count that
// observing every event into it gives, for one run of excel's three
// traces and for two runs folding into one set concurrently, and every
// bucket that got samples carries an exemplar of one of the runs, with
// a value inside that bucket.
func TestHistogramsFoldMatchesPerEvent(t *testing.T) {
	p, err := workload.ByName("excel")
	if err != nil {
		t.Fatal(err)
	}
	// runs runs one RPO simulation per collector, all at once.
	runs := func(cols ...sim.Collector) {
		var wg sync.WaitGroup
		for _, c := range cols {
			wg.Add(1)
			go func(c sim.Collector) {
				defer wg.Done()
				if _, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
					sim.Options{MaxInsts: 60_000, DisableCache: true, Probes: []sim.Collector{c}}); err != nil {
					t.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	for _, ids := range [][]string{
		{"0af7651916cd43dd8448eb211c80319c"},
		{"0af7651916cd43dd8448eb211c80319c", "4bf92f3577b34da6a3ce929d0e0e4736"},
	} {
		got, want := telemetry.NewHistogramSet(), telemetry.NewHistogramSet()
		var folded, reference []sim.Collector
		for _, id := range ids {
			folded = append(folded, telemetry.NewHistograms(got, id))
			reference = append(reference, perEvent{set: want, traceID: id})
		}
		runs(folded...)
		runs(reference...)
		for i, h := range got.All() {
			g, w := h.Snapshot(), want.All()[i].Snapshot()
			if g.Count == 0 || !slices.Equal(g.Counts, w.Counts) || g.Sum != w.Sum || g.Count != w.Count {
				t.Errorf("%d runs: %s folded counts %v sum %v count %d, per-event %v sum %v count %d",
					len(ids), g.Name, g.Counts, g.Sum, g.Count, w.Counts, w.Sum, w.Count)
				continue
			}
			for b, n := range g.Counts {
				if n == 0 {
					continue
				}
				lo, hi := math.Inf(-1), math.Inf(1)
				if b > 0 {
					lo = g.Bounds[b-1]
				}
				if b < len(g.Bounds) {
					hi = g.Bounds[b]
				}
				if g.Exemplars == nil || !slices.Contains(ids, g.Exemplars[b].TraceID) {
					t.Errorf("%d runs: %s bucket %d (%d samples) has no exemplar of the runs", len(ids), g.Name, b, n)
				} else if v := g.Exemplars[b].Value; v <= lo || v > hi {
					t.Errorf("%d runs: %s bucket %d exemplar value %v outside (%v, %v]", len(ids), g.Name, b, v, lo, hi)
				}
			}
		}
	}
}

// TestHistogramsFoldOnce: a run's samples reach the set only when its
// fold runs, and a second fold adds nothing.
func TestHistogramsFoldOnce(t *testing.T) {
	set := telemetry.NewHistogramSet()
	probe, done := telemetry.NewHistograms(set, "").Attach("r", 0, nil)
	probe.FetchRetire(5)
	probe.FrameBuilt(0, 1, 0x10, 40)
	if n := set.FetchRetire.Snapshot().Count; n != 0 {
		t.Fatalf("%d samples in the set before the fold", n)
	}
	done()
	done()
	fr, fu := set.FetchRetire.Snapshot(), set.FrameUOps.Snapshot()
	if fr.Count != 1 || fr.Sum != 5 || fu.Count != 1 || fu.Sum != 40 {
		t.Errorf("after two folds: fetch-retire count %d sum %v, frame-uops count %d sum %v; want 1/5 and 1/40",
			fr.Count, fr.Sum, fu.Count, fu.Sum)
	}
}
