package sim

import (
	"context"

	"repro/internal/diff"
	"repro/internal/opt"
	"repro/internal/workload"
)

// AttrRow is one workload's per-pass optimization attribution under the
// RPO configuration: which pass killed or rewrote how many micro-ops,
// reproducing the paper's per-optimization breakdown with provenance.
type AttrRow struct {
	Workload string     `json:"workload"`
	Class    string     `json:"class"`
	Passes   []PassStat `json:"passes"`
	Opt      opt.Stats  `json:"opt"`
}

// PassStat is one row of the attribution table: what a named optimizer
// pass did across all frames it touched.
type PassStat struct {
	Pass      string // pass name (nop, cp, ra, cse, cse-load, sf, assert, dce)
	Calls     uint64 // invocations that changed something
	Killed    uint64 // uops invalidated by the pass
	Rewritten uint64 // uops rewritten in place (folds, reassociations, load conversions)
}

// KilledTotal sums killed uops across passes; by construction it equals
// Opt.Removed() (the conservation invariant the attribution test pins).
func (r *AttrRow) KilledTotal() uint64 {
	var n uint64
	for _, ps := range r.Passes {
		n += ps.Killed
	}
	return n
}

// Attribution runs the RPO configuration over each profile with a
// private diff collector, beside any of the caller's, and returns its
// per-pass totals in opt.PassNames order. Each profile gets its own
// collector so rows are per-workload; the collector forces execution
// (no memo hits), making the tables exact for the measured run.
func Attribution(ctx context.Context, profiles []workload.Profile, o Options) ([]AttrRow, error) {
	cols, results, err := runProbed(ctx, profileSources(profiles), o, diff.NewCollector)
	if err != nil {
		return nil, err
	}
	rows := make([]AttrRow, len(profiles))
	for i, p := range profiles {
		passes := cols[i].Snapshot().Passes
		names := opt.PassNames(passes)
		rows[i] = AttrRow{
			Workload: p.Name,
			Class:    p.Class,
			Passes:   make([]PassStat, len(names)),
			Opt:      results[i].Stats.Opt,
		}
		for j, n := range names {
			pc := passes[n]
			rows[i].Passes[j] = PassStat{Pass: n, Calls: pc.Calls, Killed: pc.Killed, Rewritten: pc.Rewritten}
		}
	}
	return rows, nil
}
