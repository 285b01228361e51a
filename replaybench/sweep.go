package main

import (
	"context"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sweepSession runs the paper's evaluation the way replaysim
// -experiment all does: every figure in order, with the capture cache
// and run memo on and emptied before each sweep.
type sweepSession struct {
	p               params
	all, spec, desk []workload.Profile
	o               sim.Options
}

// sweepSteps are the figures of one sweep, in run order.
var sweepSteps = []struct {
	span string
	run  func(ctx context.Context, s *sweepSession) (any, error)
}{
	{"sweep.fig6", func(ctx context.Context, s *sweepSession) (any, error) { return sim.Fig6(ctx, s.all, s.o) }},
	{"sweep.fig7", func(ctx context.Context, s *sweepSession) (any, error) { return sim.CycleBreakdown(ctx, s.spec, s.o) }},
	{"sweep.fig8", func(ctx context.Context, s *sweepSession) (any, error) { return sim.CycleBreakdown(ctx, s.desk, s.o) }},
	{"sweep.table3", func(ctx context.Context, s *sweepSession) (any, error) { return sim.Table3(ctx, s.all, s.o) }},
	{"sweep.fig9", func(ctx context.Context, s *sweepSession) (any, error) { return sim.Fig9(ctx, s.all, s.o) }},
	{"sweep.fig10", func(ctx context.Context, s *sweepSession) (any, error) { return sim.Fig10(ctx, s.o) }},
}

// sweepInsts is the sweep's per-trace instruction budget. A run's
// metrics are medians over its sweeps, so a sweep is kept short enough
// for a 25-second run to hold about twenty: at 100k a run held eleven,
// and their medians spread up to 0.086 across seeds. Every figure still
// runs its machines, caches and dispatch.
const sweepInsts = 50_000

func setupSweep(p params) (session, error) {
	o := sim.Options{MaxInsts: sweepInsts}
	if p.maxInsts > 0 {
		o.MaxInsts = p.maxInsts
	}
	s := &sweepSession{p: p, all: seededProfiles(workload.Profiles, p), o: o}
	for _, pr := range s.all {
		if pr.Class == "SPECint" {
			s.spec = append(s.spec, pr)
		} else {
			s.desk = append(s.desk, pr)
		}
	}
	if err := generateAll(s.all); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sweepSession) close() {}

func (s *sweepSession) run(deadline time.Time, rec *recorder, hs *hostScale) *result {
	kinds := []opKind{plain}
	if rec != nil {
		kinds = []opKind{plain, traced}
	}
	res := runSequential("paper-sweep", s.p, kinds, deadline, rec, hs, s.sweep)
	if rec != nil {
		self, _ := rec.selfPerName()
		var total float64
		for _, d := range res.ms[traced] {
			total += d
		}
		for _, st := range sweepSteps {
			res.layers[st.span+"_frac"] = div(ms(self[st.span]), total)
		}
	}
	return res
}

// probeModes are the machines a sweep simulates.
var probeModes = []pipeline.Mode{pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt}

// afterRun times the simulator's layers on the sweep's programs: each
// profile's first trace at the sweep budget, in every mode. A sweep
// replays captured streams and memoized runs inside sim, so its own
// simulations cannot be split by layer from outside.
func (s *sweepSession) afterRun(rec *recorder, res *result) {
	if rec == nil {
		return
	}
	profiles := make([]workload.Profile, len(s.all))
	t := rec.newOp(0)
	root := t.begin("paper-sweep.layers", -1)
	for i, p := range s.all {
		p.XInsts = s.o.MaxInsts
		profiles[i] = p
		for _, m := range probeModes {
			if _, err := tracedTrace(t, root, p, 0, p.XInsts, m); err != nil {
				res.fail("layer probe: %v", err)
				return
			}
		}
	}
	t.end(root)
	rec.finish(t)
	addSimLayers(rec, res, profiles)
}

func (s *sweepSession) sweep(kind opKind, t *opTrace, parent int) (opOut, error) {
	ctx := context.Background()
	out := opOut{rows: make(map[string]any, len(sweepSteps))}
	before := sim.SnapshotMetrics().Aggregate.X86Retired
	i := -1
	if t != nil {
		i = t.begin("sim.reset_caches", parent)
	}
	sim.ResetCaches()
	for _, st := range sweepSteps {
		if t != nil {
			t.end(i)
			i = t.begin(st.span, parent)
		}
		rows, err := st.run(ctx, s)
		if err != nil {
			return out, err
		}
		out.rows[st.span] = rows
	}
	if t != nil {
		t.end(i)
	}
	out.insts = sim.SnapshotMetrics().Aggregate.X86Retired - before
	return out, nil
}
