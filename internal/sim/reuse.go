package sim

import (
	"context"

	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/workload"
)

// ReuseRow is one workload's reuse decomposition under the RPO
// configuration: retired work and frame-lifecycle events attributed to
// {loop-depth bucket, instruction class}, plus the heaviest detected
// loops with trip counts and nesting depths.
type ReuseRow struct {
	Workload string `json:"workload"`
	Class    string `json:"class"`
	// Insts is the measured-window x86 instruction count — the
	// deterministic cost proxy the subset selector divides reuse mass by.
	Insts  uint64       `json:"insts"`
	Report reuse.Report `json:"report"`
}

// ReuseReport is the -experiment reuse result: the per-workload
// decomposition rows plus the ranked representative subset.
type ReuseReport struct {
	Rows []ReuseRow `json:"rows"`
	// Subset is the greedy representative selection in rank order:
	// workloads that together cover reuse.DefaultCoverage of the set's
	// reuse mass at the least simulated cost.
	Subset []reuse.SubsetPick `json:"subset"`
}

// Reuse runs the RPO configuration over each profile with a private
// reuse collector and assembles the decomposition table and the ranked
// representative subset. Reuse attribution forces execution (no memo
// hits), so the rows are exact for the measured runs; rows come back
// in profile order and the subset in greedy rank order, both
// deterministic.
func Reuse(ctx context.Context, profiles []workload.Profile, o Options) (*ReuseReport, error) {
	return ReuseWithExternal(ctx, profiles, nil, o)
}

// ReuseWithExternal is Reuse extended with adapted external traces:
// uploaded traces decompose under the same detector and feed the same
// representative-subset selection as the built-in profiles, so a
// spooled trace can stand in for (or be ranked against) the synthetic
// workload set. External rows follow the profile rows, in request
// order; the subset selector sees them all.
func ReuseWithExternal(ctx context.Context, profiles []workload.Profile,
	exts []ExternalRun, o Options) (*ReuseReport, error) {
	n := len(profiles) + len(exts)
	jobs := make([]runJob, n)
	for i := range jobs {
		jobs[i].mode = pipeline.ModeRePLayOpt
		if i < len(profiles) {
			jobs[i].profile = profiles[i]
		} else {
			jobs[i].external = &exts[i-len(profiles)]
		}
	}
	cols, results, err := runProbed(ctx, jobs, o, reuse.NewCollector)
	if err != nil {
		return nil, err
	}
	rep := &ReuseReport{Rows: make([]ReuseRow, n)}
	items := make([]reuse.SubsetItem, n)
	for i := range results {
		name, class := results[i].Workload, results[i].Class
		r := ReuseRow{
			Workload: name,
			Class:    class,
			Insts:    results[i].Stats.X86Retired,
			Report:   cols[i].Snapshot(),
		}
		rep.Rows[i] = r
		items[i] = reuse.SubsetItem{
			Name: name,
			Cost: float64(r.Insts),
			Mass: reuse.Signature(&r.Report),
		}
	}
	rep.Subset = reuse.Select(items, reuse.DefaultCoverage)
	return rep, nil
}
