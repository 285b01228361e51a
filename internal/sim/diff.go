package sim

import (
	"context"
	"fmt"

	"repro/internal/diff"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// DiffSide describes one side of an A/B comparison: a workload profile
// or an adapted external trace, the fetch-engine mode, and an optional
// configuration override applied after the shared Options.ConfigMod.
type DiffSide struct {
	// Label names this side in the report.
	Label string
	// Profile is the interpreter-backed workload; exactly one of
	// Profile and External must be set.
	Profile *workload.Profile
	// External is an adapted uploaded trace to replay instead.
	External *ExternalRun
	// Mode selects the fetch engine.
	Mode pipeline.Mode
	// ConfigMod further narrows this side's configuration (e.g. a
	// disabled optimizer subset). It runs after Options.ConfigMod.
	ConfigMod func(*pipeline.Config)
}

// src is the side's simulation input.
func (s *DiffSide) src() source {
	if s.External != nil {
		return externalSource(*s.External)
	}
	return profileSource(*s.Profile)
}

// DiffPair is one row of a comparison: the baseline and variant sides
// over the same (or a cloned) workload.
type DiffPair struct {
	Base, Variant DiffSide
}

// DiffRow is one workload's comparison.
type DiffRow struct {
	Workload string      `json:"workload"`
	Class    string      `json:"class"`
	Report   diff.Report `json:"report"`
}

// DiffReport is the -experiment diff result: one conservation-exact
// comparison per workload, in request order.
type DiffReport struct {
	Baseline string    `json:"baseline"`
	Variant  string    `json:"variant"`
	Rows     []DiffRow `json:"rows"`
}

// SignificantRegressions totals the regressed metric verdicts across
// all workloads.
func (r *DiffReport) SignificantRegressions() int {
	n := 0
	for i := range r.Rows {
		n += r.Rows[i].Report.SignificantRegressions
	}
	return n
}

// SignificantImprovements totals the improved metric verdicts.
func (r *DiffReport) SignificantImprovements() int {
	n := 0
	for i := range r.Rows {
		n += r.Rows[i].Report.SignificantImprovements
	}
	return n
}

// LoopsCompared totals the joined per-loop delta rows.
func (r *DiffReport) LoopsCompared() int {
	n := 0
	for i := range r.Rows {
		n += len(r.Rows[i].Report.Loops)
	}
	return n
}

func chainMod(a, b func(*pipeline.Config)) func(*pipeline.Config) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(c *pipeline.Config) { a(c); b(c) }
}

// sideJob appends one side's run to jobs, with a private diff
// collector attached (forcing execution; its per-trace folds apply in
// trace order, so its partition is conservation-exact and independent
// of scheduling) and its probe runs named with variant, which tells
// the variant side's runs from the baseline's. The returned func
// assembles the finished run into one side of the comparison.
func sideJob(jobs *[]runJob, side DiffSide, variant string, o Options) func() diff.RunSide {
	col := diff.NewCollector()
	var res Result
	var err error
	po := o
	po.ConfigMod = chainMod(o.ConfigMod, side.ConfigMod)
	po.variant = variant
	po.Probes = withProbe(o.Probes, col)
	*jobs = append(*jobs, runJob{src: side.src(), mode: side.Mode, opts: po, out: &res, err: &err})
	return func() diff.RunSide {
		return diff.RunSide{Label: side.Label, Profile: col.Snapshot(), Stats: res.Stats}
	}
}

// Diff runs every pair's two sides once each, every run carrying a
// private diff probe, and joins each pair's two partitions into one
// conservation-exact delta report with top-line verdicts. The simulator
// is deterministic, so one run per side is exact. Each side's mode and
// config come from the side itself (chained after Options.ConfigMod), so
// the variant does not inherit the baseline's overrides. Rows are named
// after the baseline side and come back in pair order, deterministic.
func Diff(ctx context.Context, pairs []DiffPair, o Options) (*DiffReport, error) {
	rep := &DiffReport{Baseline: "baseline", Variant: "variant", Rows: make([]DiffRow, len(pairs))}
	sides := make([][2]func() diff.RunSide, len(pairs))
	var jobs []runJob
	for i, p := range pairs {
		for _, s := range []*DiffSide{&p.Base, &p.Variant} {
			if (s.Profile == nil) == (s.External == nil) {
				return nil, fmt.Errorf("sim: diff side %q needs exactly one of a workload or an external trace", s.Label)
			}
		}
		if p.Base.Label == "" {
			p.Base.Label = rep.Baseline
		}
		if p.Variant.Label == "" {
			p.Variant.Label = rep.Variant
		}
		if i == 0 {
			rep.Baseline, rep.Variant = p.Base.Label, p.Variant.Label
		}
		sides[i] = [2]func() diff.RunSide{sideJob(&jobs, p.Base, "", o), sideJob(&jobs, p.Variant, "variant", o)}
		base := p.Base.src()
		rep.Rows[i].Workload, rep.Rows[i].Class = base.name, base.class
	}
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}
	for i := range pairs {
		rep.Rows[i].Report = *diff.Compare(sides[i][0](), sides[i][1]())
	}
	return rep, nil
}
