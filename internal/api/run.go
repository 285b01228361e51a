package api

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Resolver maps an uploaded trace's content ID to its adapted run.
type Resolver func(id string) (*sim.ExternalRun, error)

// get resolves id, failing cleanly when the caller has no trace store.
func (r Resolver) get(id string) (*sim.ExternalRun, error) {
	if r == nil {
		return nil, fmt.Errorf("no trace store to resolve uploaded trace %q", id)
	}
	return r(id)
}

// Run is the one experiment dispatcher: replaysim and replayd both
// execute every request through it. It resolves the request's sources
// (the listed workloads, the experiment's default set, or uploaded
// traces through resolve), runs the matching sim driver, and streams one
// progress event per completed (workload, mode) run. progress is called
// one event at a time, in Done order, so it must not wait on other runs.
// base carries the caller's own options (DisableCache, Probes);
// budget, warmup and config come from the request. progress and resolve
// may be nil when unused.
func Run(ctx context.Context, req RunRequest, progress func(Event), base sim.Options, resolve Resolver) (*RunResponse, error) {
	req = req.Canonical()
	src, err := resolveSources(req, resolve)
	if err != nil {
		return nil, err
	}
	opts := base
	opts.MaxInsts = req.Insts
	opts.WarmupFrac = req.WarmupFrac
	opts.ConfigMod = req.Config.Mod()
	if progress != nil {
		// Runs complete in parallel; holding the lock across progress
		// keeps the events in Done order, so the last one always reports
		// Done == Total.
		total := runCount(req, src.len())
		var mu sync.Mutex
		done := 0
		opts.Notify = func(r sim.Result) {
			mu.Lock()
			defer mu.Unlock()
			done++
			progress(Event{Msg: fmt.Sprintf("%s/%s done", r.Workload, r.Mode), Done: done, Total: total})
		}
	}

	ps := src.profiles
	res := &RunResponse{Experiment: req.Experiment}
	switch req.Experiment {
	case ExpFig6:
		res.Fig6, err = sim.Fig6(ctx, ps, opts)
	case ExpFig7, ExpFig8:
		res.Breakdown, err = sim.CycleBreakdown(ctx, ps, opts)
	case ExpTable3:
		res.Table3, err = sim.Table3(ctx, ps, opts)
	case ExpFig9:
		res.Fig9, err = sim.Fig9(ctx, ps, opts)
	case ExpFig10:
		res.Fig10, err = sim.Fig10(ctx, opts)
	case ExpSummary:
		res.Fig6, err = sim.Fig6(ctx, ps, opts)
		if err == nil {
			res.Table3, err = sim.Table3(ctx, ps, opts)
		}
	case ExpCell:
		res.Cells, err = runCells(ctx, req.Mode, src, opts)
	case ExpAttr:
		res.Attr, err = sim.Attribution(ctx, ps, opts)
	case ExpReuse:
		res.Reuse, err = sim.ReuseWithExternal(ctx, ps, src.exts, opts)
	case ExpCycles:
		res.Cycles, err = sim.CycleProf(ctx, ps, opts)
	case ExpDiff:
		res.Diff, err = runDiff(ctx, req, src, opts, resolve)
	default:
		return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Budget returns the largest per-trace instruction budget the request
// runs: Insts when set, otherwise the largest default budget among the
// workloads and uploaded traces it resolves to.
func Budget(req RunRequest, resolve Resolver) (int, error) {
	req = req.Canonical()
	if req.Insts > 0 {
		return req.Insts, nil
	}
	src, err := resolveSources(req, resolve)
	if err != nil {
		return 0, err
	}
	if req.Diff != nil && req.Diff.XTrace != "" {
		ext, err := resolve.get(req.Diff.XTrace)
		if err != nil {
			return 0, err
		}
		src.exts = append(src.exts, *ext)
	}
	budget := 0
	for _, p := range src.profiles {
		budget = max(budget, p.XInsts)
	}
	for i := range src.exts {
		budget = max(budget, src.exts[i].Budget())
	}
	return budget, nil
}

// sources is a request's resolved workload set: built-in profiles, then
// uploaded traces.
type sources struct {
	profiles []workload.Profile
	exts     []sim.ExternalRun
}

func (s sources) len() int { return len(s.profiles) + len(s.exts) }

// resolveSources resolves the canonical request's workload set: the
// listed workloads, plus the uploaded trace it names. With neither, the
// experiment's paper-default set.
func resolveSources(req RunRequest, resolve Resolver) (sources, error) {
	var src sources
	names := req.Workloads
	if len(names) == 0 && req.XTrace == "" {
		names = defaultWorkloads(req.Experiment)
	}
	for _, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return src, err
		}
		src.profiles = append(src.profiles, p)
	}
	if req.XTrace != "" {
		ext, err := resolve.get(req.XTrace)
		if err != nil {
			return src, err
		}
		src.exts = append(src.exts, *ext)
	}
	return src, nil
}

// defaultWorkloads is an experiment's paper-default workload set: the
// SPEC subset for Figure 7, the desktop subset for Figure 8, Figure 10's
// fixed five, and all 14 applications otherwise.
func defaultWorkloads(experiment string) []string {
	var classes []string
	switch experiment {
	case ExpFig7:
		classes = []string{"SPECint"}
	case ExpFig8:
		classes = []string{"Business", "Content"}
	case ExpFig10:
		return sim.Fig10Workloads
	default:
		classes = []string{""}
	}
	var names []string
	for _, class := range classes {
		for _, p := range workload.Profiles {
			if class == "" || p.Class == class {
				names = append(names, p.Name)
			}
		}
	}
	return names
}

// runCount is how many (workload, mode) runs the experiment executes
// over n sources, for progress totals.
func runCount(req RunRequest, n int) int {
	switch req.Experiment {
	case ExpFig6:
		return 4 * n
	case ExpFig7, ExpFig8, ExpTable3:
		return 2 * n
	case ExpFig9:
		return 3 * n
	case ExpFig10:
		return (2 + len(sim.Fig10Variants)) * n
	case ExpSummary:
		return 6 * n
	case ExpDiff:
		return 2 * n
	}
	return n
}

// runCells runs each source under one mode and returns raw result cells
// in request order.
func runCells(ctx context.Context, modeName string, src sources, opts sim.Options) ([]Cell, error) {
	mode, err := ParseMode(modeName)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, src.len())
	add := func(r sim.Result, err error) error {
		if err != nil {
			return err
		}
		cells = append(cells, Cell{Workload: r.Workload, Class: r.Class, Mode: mode.String(),
			IPC: r.IPC(), Stats: r.Stats})
		return nil
	}
	for _, p := range src.profiles {
		if err := add(sim.RunWorkload(ctx, p, mode, opts)); err != nil {
			return nil, err
		}
	}
	for _, ext := range src.exts {
		if err := add(sim.RunExternal(ctx, ext, mode, opts)); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// runDiff maps a diff request onto the sim pair driver: the request's
// own Mode/Config describe the baseline side of every source, the Diff
// spec the variant side, which replays the spec's uploaded trace when
// it names one and the baseline's source otherwise.
func runDiff(ctx context.Context, req RunRequest, src sources, opts sim.Options, resolve Resolver) (*sim.DiffReport, error) {
	d := req.Diff
	baseMode, err := ParseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	varMode := baseMode
	if d.Mode != "" {
		if varMode, err = ParseMode(d.Mode); err != nil {
			return nil, err
		}
	}
	var varExt *sim.ExternalRun
	if d.XTrace != "" {
		if varExt, err = resolve.get(d.XTrace); err != nil {
			return nil, err
		}
	}
	base := sim.DiffSide{Label: "baseline", Mode: baseMode, ConfigMod: req.Config.Mod()}
	vari := sim.DiffSide{Label: d.Label, Mode: varMode, ConfigMod: d.Config.Mod()}
	pairs := make([]sim.DiffPair, 0, src.len())
	pair := func(p *workload.Profile, ext *sim.ExternalRun) {
		b, v := base, vari
		b.Profile, b.External = p, ext
		v.Profile, v.External = p, ext
		if varExt != nil {
			v.Profile, v.External = nil, varExt
		}
		pairs = append(pairs, sim.DiffPair{Base: b, Variant: v})
	}
	for i := range src.profiles {
		pair(&src.profiles[i], nil)
	}
	for i := range src.exts {
		pair(nil, &src.exts[i])
	}
	// Each side carries its own config; the shared options must not also
	// carry the baseline's, or the variant would inherit it.
	opts.ConfigMod = nil
	return sim.Diff(ctx, pairs, opts)
}
