package server

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// SimRunner executes a canonicalized request against the in-process
// simulation driver, streaming one progress event per completed
// (workload, mode) run. It is the production Runner.
func SimRunner(ctx context.Context, req api.RunRequest, progress func(api.Event)) (*api.RunResponse, error) {
	profiles, err := profilesFor(req)
	if err != nil {
		return nil, err
	}
	opts := simOptions(ctx, req, progress, runCount(req, len(profiles)))

	res := &api.RunResponse{Experiment: req.Experiment}
	switch req.Experiment {
	case api.ExpFig6:
		res.Fig6, err = sim.Fig6(ctx, profiles, opts)
	case api.ExpFig7, api.ExpFig8:
		res.Breakdown, err = sim.CycleBreakdown(ctx, profiles, opts)
	case api.ExpTable3:
		res.Table3, err = sim.Table3(ctx, profiles, opts)
	case api.ExpFig9:
		res.Fig9, err = sim.Fig9(ctx, profiles, opts)
	case api.ExpFig10:
		res.Fig10, err = sim.Fig10(ctx, opts)
	case api.ExpSummary:
		res.Fig6, err = sim.Fig6(ctx, profiles, opts)
		if err == nil {
			res.Table3, err = sim.Table3(ctx, profiles, opts)
		}
	case api.ExpCell:
		mode, merr := api.ParseMode(req.Mode)
		if merr != nil {
			return nil, merr
		}
		res.Cells, err = runCells(ctx, profiles, mode, opts)
	case api.ExpAttr:
		res.Attr, err = sim.Attribution(ctx, profiles, opts)
	case api.ExpReuse:
		res.Reuse, err = sim.Reuse(ctx, profiles, opts)
	case api.ExpCycles:
		res.Cycles, err = sim.CycleProf(ctx, profiles, opts)
	case api.ExpDiff:
		// Each side's mode and config ride its own DiffVariant; the
		// shared options must not also carry the baseline's config or the
		// variant would inherit it.
		opts.ConfigMod = nil
		res.Diff, err = runDiffSweep(ctx, profiles, req, opts)
	default:
		return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// simOptions assembles the sim options a job's runs share: budget,
// warmup and config from the request, telemetry from the job context
// (the global histogram-only collector, or the per-job trace
// collector), and one progress event per completed run against the
// known run total.
func simOptions(ctx context.Context, req api.RunRequest, progress func(api.Event), total int) sim.Options {
	opts := sim.Options{
		MaxInsts:   req.Insts,
		WarmupFrac: req.WarmupFrac,
		ConfigMod:  configMod(req.Config),
		Telemetry:  telemetry.FromContext(ctx),
	}
	var done atomic.Int64
	opts.Notify = func(r sim.Result) {
		progress(api.Event{
			Msg:   fmt.Sprintf("%s/%s done", r.Workload, r.Mode),
			Done:  int(done.Add(1)),
			Total: total,
		})
	}
	return opts
}

// diffModes parses a diff request's two fetch engines: the request's
// own Mode is the baseline's, and an unset variant mode inherits it.
func diffModes(req api.RunRequest) (base, vari pipeline.Mode, err error) {
	if base, err = api.ParseMode(req.Mode); err != nil {
		return 0, 0, err
	}
	if req.Diff.Mode == "" {
		return base, base, nil
	}
	vari, err = api.ParseMode(req.Diff.Mode)
	return base, vari, err
}

// runDiffSweep maps a diff request's two sides onto the sim driver's
// baseline/variant sweep: the request's own Mode/Config describe the
// baseline, the Diff spec the variant.
func runDiffSweep(ctx context.Context, profiles []workload.Profile, req api.RunRequest, opts sim.Options) (*sim.DiffReport, error) {
	d := req.Diff
	baseMode, varMode, err := diffModes(req)
	if err != nil {
		return nil, err
	}
	base := sim.DiffVariant{Label: "baseline", Mode: baseMode, HasMode: true,
		ConfigMod: configMod(req.Config)}
	vs := sim.DiffVariant{Label: d.Label, Mode: varMode, HasMode: true,
		ConfigMod: configMod(d.Config), Repeats: d.Repeats}
	return sim.Diff(ctx, profiles, opts, base, vs)
}

// runCells runs each profile under one mode and returns raw result
// cells in request order.
func runCells(ctx context.Context, profiles []workload.Profile, mode pipeline.Mode, opts sim.Options) ([]api.Cell, error) {
	cells := make([]api.Cell, 0, len(profiles))
	for _, p := range profiles {
		r, err := sim.RunWorkload(ctx, p, mode, opts)
		if err != nil {
			return nil, err
		}
		cells = append(cells, api.Cell{
			Workload: r.Workload,
			Class:    r.Class,
			Mode:     mode.String(),
			IPC:      r.IPC(),
			Stats:    r.Stats,
		})
	}
	return cells, nil
}

// runCount estimates how many (workload, mode) runs the experiment
// executes, for progress totals.
func runCount(req api.RunRequest, profiles int) int {
	switch req.Experiment {
	case api.ExpFig6:
		return 4 * profiles
	case api.ExpFig7, api.ExpFig8, api.ExpTable3:
		return 2 * profiles
	case api.ExpFig9:
		return 3 * profiles
	case api.ExpFig10:
		return 8 * len(sim.Fig10Workloads)
	case api.ExpSummary:
		return 6 * profiles
	case api.ExpCell, api.ExpAttr, api.ExpReuse, api.ExpCycles:
		return profiles
	case api.ExpDiff:
		repeats := 1
		if req.Diff != nil && req.Diff.Repeats > 1 {
			repeats = req.Diff.Repeats
		}
		return 2 * repeats * profiles
	}
	return 0
}

// profilesFor resolves the request's workload set: an explicit list, or
// the experiment's paper-default subset.
func profilesFor(req api.RunRequest) ([]workload.Profile, error) {
	if len(req.Workloads) > 0 {
		ps := make([]workload.Profile, 0, len(req.Workloads))
		for _, name := range req.Workloads {
			p, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		return ps, nil
	}
	switch req.Experiment {
	case api.ExpFig7:
		return byClass("SPECint"), nil
	case api.ExpFig8:
		return append(byClass("Business"), byClass("Content")...), nil
	default:
		return append([]workload.Profile(nil), workload.Profiles...), nil
	}
}

func byClass(class string) []workload.Profile {
	var ps []workload.Profile
	for _, p := range workload.Profiles {
		if p.Class == class {
			ps = append(ps, p)
		}
	}
	return ps
}

// validateWorkloads rejects unknown workload names at submission time,
// so typos fail with 400 instead of a failed job.
func validateWorkloads(req api.RunRequest) error {
	for _, name := range req.Workloads {
		if _, err := workload.ByName(name); err != nil {
			return err
		}
	}
	return nil
}

// configMod translates wire overrides into a Table 2 config edit.
func configMod(o *api.ConfigOverrides) func(*pipeline.Config) {
	return o.Mod()
}

// workloadInfo is the /v1/workloads row.
type workloadInfo struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	Traces int    `json:"traces"`
	Insts  int    `json:"insts"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	out := make([]workloadInfo, 0, len(workload.Profiles))
	for _, p := range workload.Profiles {
		out = append(out, workloadInfo{Name: p.Name, Class: p.Class, Traces: p.Traces, Insts: p.XInsts})
	}
	writeJSON(w, http.StatusOK, out)
}
