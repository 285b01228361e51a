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
	// Mode selects the fetch engine when HasMode is set; the default is
	// the optimizing configuration (RPO).
	Mode    pipeline.Mode
	HasMode bool
	// ConfigMod further narrows this side's configuration (e.g. a
	// disabled optimizer subset). It runs after Options.ConfigMod.
	ConfigMod func(*pipeline.Config)
}

func (s *DiffSide) mode() pipeline.Mode {
	if s.HasMode {
		return s.Mode
	}
	return pipeline.ModeRePLayOpt
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
	Repeats  int       `json:"repeats"`
	Rows     []DiffRow `json:"rows"`
}

// SignificantRegressions totals the gated regression verdicts across
// all workloads.
func (r *DiffReport) SignificantRegressions() int {
	n := 0
	for i := range r.Rows {
		n += r.Rows[i].Report.SignificantRegressions
	}
	return n
}

// SignificantImprovements totals the gated improvement verdicts.
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

// diffRuns is one side's runs: the first repeat carries the diff
// collector (forcing execution; its per-trace folds apply in trace
// order, so its partition is conservation-exact and independent of
// scheduling), later repeats run plain and only feed the significance
// gate.
type diffRuns struct {
	label   string
	col     *diff.Collector
	results []Result
}

// sideJobs appends one side's runs to jobs.
func sideJobs(jobs *[]runJob, side DiffSide, o Options, repeats int) *diffRuns {
	d := &diffRuns{label: side.Label, col: diff.NewCollector(), results: make([]Result, repeats)}
	errs := make([]error, repeats)
	src := side.src()
	for r := 0; r < repeats; r++ {
		po := o
		po.ConfigMod = chainMod(o.ConfigMod, side.ConfigMod)
		if r == 0 {
			po.Probes = withProbe(o.Probes, d.col)
		}
		*jobs = append(*jobs, runJob{src: src, mode: side.mode(), opts: po, out: &d.results[r], err: &errs[r]})
	}
	return d
}

// side assembles the finished runs into one side of a comparison.
func (d *diffRuns) side() diff.RunSide {
	runs := make([]pipeline.Stats, len(d.results))
	for i := range d.results {
		runs[i] = d.results[i].Stats
	}
	return diff.RunSide{Label: d.label, Profile: d.col.Snapshot(), Runs: runs}
}

// Diff runs every pair's two sides, each repeats times (the first run
// of each side carries a private diff probe), and joins each pair's two
// partitions into one conservation-exact delta report with
// significance-gated top-line verdicts. Each side's mode and config come
// from the side itself (chained after Options.ConfigMod), so the variant
// does not inherit the baseline's overrides. Rows are named after the
// baseline side and come back in pair order, deterministic.
func Diff(ctx context.Context, pairs []DiffPair, o Options, repeats int) (*DiffReport, error) {
	if repeats < 1 {
		repeats = 1
	}
	rep := &DiffReport{Baseline: "baseline", Variant: "variant", Repeats: repeats,
		Rows: make([]DiffRow, len(pairs))}
	sides := make([][2]*diffRuns, len(pairs))
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
		sides[i] = [2]*diffRuns{sideJobs(&jobs, p.Base, o, repeats), sideJobs(&jobs, p.Variant, o, repeats)}
		base := p.Base.src()
		rep.Rows[i].Workload, rep.Rows[i].Class = base.name, base.class
	}
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}
	for i := range pairs {
		rep.Rows[i].Report = *diff.Compare(sides[i][0].side(), sides[i][1].side())
	}
	return rep, nil
}
