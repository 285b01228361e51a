package sim

import (
	"context"

	"repro/internal/cycleprof"
	"repro/internal/workload"
)

// CycleRow is one workload's guest-cycle profile under the RPO
// configuration: every charged fetch cycle attributed to a guest PC and
// fetch bin, joined against the detected loop structure.
type CycleRow struct {
	Workload string `json:"workload"`
	Class    string `json:"class"`
	// IPC is the measured-window instructions per cycle, so renderers
	// can put the hotspot table next to the headline metric.
	IPC    float64          `json:"ipc"`
	Report cycleprof.Report `json:"report"`
}

// CycleReport is the -experiment cycles result: one profile row per
// workload, in request order.
type CycleReport struct {
	Rows []CycleRow `json:"rows"`
}

// Profiles flattens the rows into the named reports the pprof and
// flame-text exporters consume.
func (r *CycleReport) Profiles() []cycleprof.NamedReport {
	out := make([]cycleprof.NamedReport, len(r.Rows))
	for i := range r.Rows {
		out[i] = cycleprof.NamedReport{Name: r.Rows[i].Workload, Report: &r.Rows[i].Report}
	}
	return out
}

// CycleProf runs the RPO configuration over each profile with a private
// cycle-profiler collector and assembles the per-workload hotspot rows.
// Profiling forces execution (no memo hits), and each trace's fold
// applies in trace order after the fan-out, so each row is
// conservation-exact against its measured run and independent of
// scheduling; rows come back in profile order, deterministic.
func CycleProf(ctx context.Context, profiles []workload.Profile, o Options) (*CycleReport, error) {
	cols, results, err := runProbed(ctx, profileSources(profiles), o, cycleprof.NewCollector)
	if err != nil {
		return nil, err
	}
	rep := &CycleReport{Rows: make([]CycleRow, len(profiles))}
	for i, p := range profiles {
		rep.Rows[i] = CycleRow{
			Workload: p.Name,
			Class:    p.Class,
			IPC:      results[i].IPC(),
			Report:   cols[i].Snapshot(),
		}
	}
	return rep, nil
}
