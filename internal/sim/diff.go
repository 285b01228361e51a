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

// DiffVariant describes the variant side of a per-workload ablation
// sweep: the same workloads as the baseline, run under a modified
// configuration.
type DiffVariant struct {
	// Label names the variant in reports (e.g. the optspec it came from).
	Label string
	// ConfigMod applies the variant's configuration delta (runs after
	// Options.ConfigMod).
	ConfigMod func(*pipeline.Config)
	// Mode overrides the variant's fetch engine when HasMode is set.
	Mode    pipeline.Mode
	HasMode bool
	// Repeats is how many runs per side feed the significance gate
	// (minimum 1; the first run of each side carries the diff probe).
	Repeats int
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
// collector (forcing execution and the serial per-trace path, so its
// partition is conservation-exact), later repeats run plain and only
// feed the significance gate.
type diffRuns struct {
	label   string
	col     *diff.Collector
	results []Result
}

// sideJobs appends one side's runs to jobs.
func sideJobs(jobs *[]runJob, side DiffSide, o Options, repeats int) *diffRuns {
	d := &diffRuns{label: side.Label, col: diff.NewCollector(), results: make([]Result, repeats)}
	errs := make([]error, repeats)
	for r := 0; r < repeats; r++ {
		po := o
		po.ConfigMod = chainMod(o.ConfigMod, side.ConfigMod)
		if r == 0 {
			po.Probes = []Collector{d.col}
		}
		j := runJob{mode: side.mode(), opts: po, out: &d.results[r], err: &errs[r]}
		if side.External != nil {
			j.external = side.External
		} else {
			j.profile = *side.Profile
		}
		*jobs = append(*jobs, j)
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

// DiffPair compares two fully specified sides: each side runs repeats
// times (the first run of each carries a private diff probe), and the
// two partitions join into one conservation-exact delta report with
// significance-gated top-line verdicts.
func DiffPair(ctx context.Context, base, vari DiffSide, o Options, repeats int) (*diff.Report, error) {
	for _, s := range []*DiffSide{&base, &vari} {
		if (s.Profile == nil) == (s.External == nil) {
			return nil, fmt.Errorf("sim: diff side %q needs exactly one of a workload or an external trace", s.Label)
		}
	}
	if repeats < 1 {
		repeats = 1
	}
	var jobs []runJob
	b, v := sideJobs(&jobs, base, o, repeats), sideJobs(&jobs, vari, o, repeats)
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}
	return diff.Compare(b.side(), v.side()), nil
}

// Diff sweeps the baseline-vs-variant comparison over each profile:
// every workload is run on both sides (first run of each side probed)
// and compared. Each side's mode and config come from its own
// DiffVariant (chained after Options.ConfigMod) — the variant does not
// inherit the baseline's overrides. Rows come back in profile order,
// deterministic.
func Diff(ctx context.Context, profiles []workload.Profile, o Options, base, vs DiffVariant) (*DiffReport, error) {
	repeats := vs.Repeats
	if repeats < 1 {
		repeats = 1
	}
	baseLabel := base.Label
	if baseLabel == "" {
		baseLabel = "baseline"
	}
	varLabel := vs.Label
	if varLabel == "" {
		varLabel = "variant"
	}

	sides := make([][2]*diffRuns, len(profiles))
	var jobs []runJob
	for i := range profiles {
		p := &profiles[i]
		sides[i][0] = sideJobs(&jobs, DiffSide{Label: baseLabel, Profile: p,
			Mode: base.Mode, HasMode: base.HasMode, ConfigMod: base.ConfigMod}, o, repeats)
		sides[i][1] = sideJobs(&jobs, DiffSide{Label: varLabel, Profile: p,
			Mode: vs.Mode, HasMode: vs.HasMode, ConfigMod: vs.ConfigMod}, o, repeats)
	}
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}

	rep := &DiffReport{Baseline: baseLabel, Variant: varLabel, Repeats: repeats,
		Rows: make([]DiffRow, len(profiles))}
	for i, p := range profiles {
		r := diff.Compare(sides[i][0].side(), sides[i][1].side())
		rep.Rows[i] = DiffRow{Workload: p.Name, Class: p.Class, Report: *r}
	}
	return rep, nil
}
