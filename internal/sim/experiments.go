package sim

import (
	"context"

	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Fig6Row is one application's bar group in Figure 6.
type Fig6Row struct {
	Workload string
	Class    string
	IPC      [4]float64 // indexed by pipeline.Mode
	Gain     float64    // RPO over RP, percent
}

// Fig6 runs the four processor configurations over every workload
// (Figure 6: estimated x86 instructions retired per cycle).
func Fig6(ctx context.Context, profiles []workload.Profile, o Options) ([]Fig6Row, error) {
	modes := []pipeline.Mode{pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt}
	results := make([][4]Result, len(profiles))
	errs := make([][4]error, len(profiles))
	sides := make([]side, len(modes))
	for m, mode := range modes {
		sides[m] = side{mode, o}
	}
	jobs := sweepJobs(profileSources(profiles), sides, func(i, m int) (*Result, *error) { return &results[i][m], &errs[i][m] })
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(profiles))
	for i, p := range profiles {
		r := Fig6Row{Workload: p.Name, Class: p.Class}
		for m := range modes {
			r.IPC[m] = results[i][m].IPC()
		}
		if r.IPC[2] > 0 {
			r.Gain = 100 * (r.IPC[3] - r.IPC[2]) / r.IPC[2]
		}
		rows[i] = r
	}
	return rows, nil
}

// BreakdownRow is one application's RP/RPO cycle breakdown (Figures 7-8).
type BreakdownRow struct {
	Workload string
	RP       pipeline.Stats
	RPO      pipeline.Stats
}

// CycleBreakdown runs RP and RPO over the given workloads and returns
// their fetch-cycle bin breakdowns.
func CycleBreakdown(ctx context.Context, profiles []workload.Profile, o Options) ([]BreakdownRow, error) {
	results := make([][2]Result, len(profiles))
	errs := make([][2]error, len(profiles))
	jobs := sweepJobs(profileSources(profiles), []side{{pipeline.ModeRePLay, o}, {pipeline.ModeRePLayOpt, o}},
		func(i, k int) (*Result, *error) { return &results[i][k], &errs[i][k] })
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}
	rows := make([]BreakdownRow, len(profiles))
	for i, p := range profiles {
		rows[i] = BreakdownRow{Workload: p.Name, RP: results[i][0].Stats, RPO: results[i][1].Stats}
	}
	return rows, nil
}

// Table3Row is one application's row of Table 3, plus the coverage the
// paper quotes in the text.
type Table3Row struct {
	Workload      string
	Class         string
	UOpsRemoved   float64 // percent of dynamic micro-ops removed
	LoadsRemoved  float64 // percent of dynamic loads removed
	IPCIncrease   float64 // percent RPO over RP
	FrameCoverage float64 // fraction of micro-ops fetched from frames
	AssertRate    float64 // fraction of frame fetches that aborted
}

// Table3 reproduces Table 3 (micro-operations and loads removed by the
// optimizer, with the resulting IPC increase).
func Table3(ctx context.Context, profiles []workload.Profile, o Options) ([]Table3Row, error) {
	results := make([][2]Result, len(profiles))
	errs := make([][2]error, len(profiles))
	jobs := sweepJobs(profileSources(profiles), []side{{pipeline.ModeRePLay, o}, {pipeline.ModeRePLayOpt, o}},
		func(i, k int) (*Result, *error) { return &results[i][k], &errs[i][k] })
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(profiles))
	for i, p := range profiles {
		rp, rpo := results[i][0], results[i][1]
		row := Table3Row{
			Workload:      p.Name,
			Class:         p.Class,
			UOpsRemoved:   100 * rpo.Stats.UOpReduction(),
			LoadsRemoved:  100 * rpo.Stats.LoadReduction(),
			FrameCoverage: rpo.Stats.FrameCoverage(),
		}
		if rp.IPC() > 0 {
			row.IPCIncrease = 100 * (rpo.IPC() - rp.IPC()) / rp.IPC()
		}
		if rpo.Stats.FrameFetches > 0 {
			row.AssertRate = float64(rpo.Stats.FrameAborts) / float64(rpo.Stats.FrameFetches)
		}
		rows[i] = row
	}
	return rows, nil
}

// Fig9Row is one application's pair of bars in Figure 9.
type Fig9Row struct {
	Workload string
	Block    float64 // % IPC gain over RP, intra-block optimization
	Frame    float64 // % IPC gain over RP, frame-level optimization
}

// Fig9 compares intra-block-only optimization with frame-level
// optimization (Figure 9).
func Fig9(ctx context.Context, profiles []workload.Profile, o Options) ([]Fig9Row, error) {
	blockOpts := o
	blockOpts.ConfigMod = chainMod(o.ConfigMod, func(c *pipeline.Config) { c.OptScope = opt.ScopeIntraBlock })
	blockOpts.variant = "intra-block"

	results := make([][3]Result, len(profiles))
	errs := make([][3]error, len(profiles))
	sides := []side{{pipeline.ModeRePLay, o}, {pipeline.ModeRePLayOpt, blockOpts}, {pipeline.ModeRePLayOpt, o}}
	jobs := sweepJobs(profileSources(profiles), sides, func(i, k int) (*Result, *error) { return &results[i][k], &errs[i][k] })
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(profiles))
	for i, p := range profiles {
		rp := results[i][0].IPC()
		rows[i] = Fig9Row{Workload: p.Name}
		if rp > 0 {
			rows[i].Block = 100 * (results[i][1].IPC() - rp) / rp
			rows[i].Frame = 100 * (results[i][2].IPC() - rp) / rp
		}
	}
	return rows, nil
}

// Fig10Workloads is the subset the paper plots in Figure 10.
var Fig10Workloads = []string{"bzip2", "crafty", "vortex", "dream", "excel"}

// Fig10Variants are the leave-one-out optimizer configurations, in the
// paper's order.
var Fig10Variants = []struct {
	Name string
	Mod  func(*opt.Options)
}{
	{"no ASST", func(o *opt.Options) { o.Assert = false }},
	{"no CP", func(o *opt.Options) { o.CP = false }},
	{"no CSE", func(o *opt.Options) { o.CSE = false }},
	{"no NOP", func(o *opt.Options) { o.NOP = false }},
	{"no RA", func(o *opt.Options) { o.RA = false }},
	{"no SF", func(o *opt.Options) { o.SF = false }},
}

// Fig10Row is one application's bar group in Figure 10: IPC of each
// leave-one-out variant normalized so RP = 0 and RPO = 1.
type Fig10Row struct {
	Workload string
	Relative [6]float64 // indexed like Fig10Variants
	RPIPC    float64
	RPOIPC   float64
}

// Fig10 reproduces the individual-optimization ablation (Figure 10).
func Fig10(ctx context.Context, o Options) ([]Fig10Row, error) {
	var profiles []workload.Profile
	for _, name := range Fig10Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	const variants = 6
	results := make([][variants + 2]Result, len(profiles))
	errs := make([][variants + 2]error, len(profiles))
	sides := []side{{pipeline.ModeRePLay, o}, {pipeline.ModeRePLayOpt, o}}
	for _, v := range Fig10Variants {
		vo := o
		vo.ConfigMod = chainMod(o.ConfigMod, func(c *pipeline.Config) { v.Mod(&c.OptOptions) })
		vo.variant = v.Name
		sides = append(sides, side{pipeline.ModeRePLayOpt, vo})
	}
	jobs := sweepJobs(profileSources(profiles), sides, func(i, k int) (*Result, *error) { return &results[i][k], &errs[i][k] })
	if err := runAll(ctx, jobs); err != nil {
		return nil, err
	}
	rows := make([]Fig10Row, len(profiles))
	for i, p := range profiles {
		rp, rpo := results[i][0].IPC(), results[i][1].IPC()
		row := Fig10Row{Workload: p.Name, RPIPC: rp, RPOIPC: rpo}
		span := rpo - rp
		for v := 0; v < variants; v++ {
			if span != 0 {
				row.Relative[v] = (results[i][2+v].IPC() - rp) / span
			}
		}
		rows[i] = row
	}
	return rows, nil
}
