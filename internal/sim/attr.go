package sim

import (
	"context"

	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// AttrRow is one workload's per-pass optimization attribution under the
// RPO configuration: which pass killed or rewrote how many micro-ops,
// reproducing the paper's per-optimization breakdown with provenance.
type AttrRow struct {
	Workload string               `json:"workload"`
	Class    string               `json:"class"`
	Passes   []telemetry.PassStat `json:"passes"`
	Opt      opt.Stats            `json:"opt"`
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
// private attribution collector, beside any of the caller's, and returns
// the per-pass tables. Each profile gets its own collector so rows are
// per-workload; attribution forces execution (no memo hits), making the
// tables exact for the measured run.
func Attribution(ctx context.Context, profiles []workload.Profile, o Options) ([]AttrRow, error) {
	cols, results, err := runProbed(ctx, profileSources(profiles), o, telemetry.NewAttribution)
	if err != nil {
		return nil, err
	}
	rows := make([]AttrRow, len(profiles))
	for i, p := range profiles {
		rows[i] = AttrRow{
			Workload: p.Name,
			Class:    p.Class,
			Passes:   cols[i].Snapshot(),
			Opt:      results[i].Stats.Opt,
		}
	}
	return rows, nil
}
