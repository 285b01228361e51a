package diff

import (
	"sort"

	"repro/internal/opt"
	"repro/internal/pipeline"
)

// RunSide bundles everything one side of a comparison contributes: a
// label for reports, the loop-partitioned profile of the side's run,
// and that run's measured-window Stats.
type RunSide struct {
	Label   string
	Profile Profile
	Stats   pipeline.Stats
}

// PassDelta is one optimizer pass's baseline-vs-variant change, either
// within one loop row or totalled across the run.
type PassDelta struct {
	Pass          string `json:"pass"`
	BaseKilled    uint64 `json:"base_killed"`
	VarKilled     uint64 `json:"var_killed"`
	DKilled       int64  `json:"d_killed"` // variant − baseline
	BaseRewritten uint64 `json:"base_rewritten,omitempty"`
	VarRewritten  uint64 `json:"var_rewritten,omitempty"`
	DRewritten    int64  `json:"d_rewritten,omitempty"`
}

// LoopDelta joins one loop's two rows: for this loop, what each pass
// removed on each side and what the fetch cycles did. Rows missing on
// one side are zero-filled, so the delta list covers the union of both
// partitions and its sums remain exact.
type LoopDelta struct {
	Trace    int    `json:"trace"`
	Header   uint32 `json:"header"`
	Tail     uint32 `json:"tail"`
	Straight bool   `json:"straight,omitempty"`
	Nest     int    `json:"nest,omitempty"`

	BaseCycles      uint64      `json:"base_cycles"`
	VarCycles       uint64      `json:"var_cycles"`
	DCycles         int64       `json:"d_cycles"`
	BaseOptRemoved  uint64      `json:"base_opt_removed"`
	VarOptRemoved   uint64      `json:"var_opt_removed"`
	DOptRemoved     int64       `json:"d_opt_removed"`
	BaseUOpsRetired uint64      `json:"base_uops_retired"`
	VarUOpsRetired  uint64      `json:"var_uops_retired"`
	DUOpsRetired    int64       `json:"d_uops_retired"`
	DCovered        int64       `json:"d_covered"`
	DFrameHits      int64       `json:"d_frame_hits"`
	Passes          []PassDelta `json:"passes,omitempty"`
}

// SideSummary is the top-line view of one side.
type SideSummary struct {
	Label       string  `json:"label"`
	IPC         float64 `json:"ipc"`
	Cycles      uint64  `json:"cycles"`
	X86         uint64  `json:"x86"`
	UOpsRetired uint64  `json:"uops_retired"`
	UOpsRemoved uint64  `json:"uops_removed"`
	Coverage    float64 `json:"coverage"`
	Loops       int     `json:"loops"`
}

// Direction-aware verdicts for a variant-vs-baseline metric delta.
const (
	VerdictImproved  = "improved"
	VerdictRegressed = "regressed"
	VerdictUnchanged = "unchanged"
)

// MetricDelta is one top-line metric: its value on each side, the raw
// delta, and the direction-aware verdict (improved / regressed /
// unchanged). The simulator is deterministic, so each side is one exact
// run and any nonzero delta is a real change.
type MetricDelta struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"` // "higher" or "lower"
	Base    float64 `json:"base"`
	Var     float64 `json:"var"`
	Delta   float64 `json:"delta"` // variant − baseline
	Verdict string  `json:"verdict"`
}

// Report is the full comparison: per-loop × per-pass deltas, per-pass
// totals, top-line metric verdicts, and the conservation residuals
// (pinned to zero by construction; computed honestly here so tests can
// pin them).
type Report struct {
	Baseline SideSummary `json:"baseline"`
	Variant  SideSummary `json:"variant"`

	// Loops is sorted by |DCycles| descending (the loop whose cycle
	// count moved most first); ties break on (trace, header) so the
	// order is deterministic.
	Loops []LoopDelta `json:"loops"`
	// Passes totals the per-loop pass deltas across the run, in
	// canonical pass order.
	Passes []PassDelta `json:"passes,omitempty"`
	// Metrics carries the top-line verdicts.
	Metrics []MetricDelta `json:"metrics"`

	// ResidualUOpsRemoved is Δ(Stats.Opt.Removed) − Σ per-loop
	// DOptRemoved; ResidualCycles is Δ(Stats.Cycles) − Σ per-loop
	// DCycles. Both are zero whenever the probes' conservation holds.
	ResidualUOpsRemoved int64 `json:"residual_uops_removed"`
	ResidualCycles      int64 `json:"residual_cycles"`

	// SignificantRegressions / SignificantImprovements count the
	// regressed and improved metric verdicts. Each side is one exact
	// run, so every nonzero delta is significant; the wire names say so.
	SignificantRegressions  int `json:"significant_regressions"`
	SignificantImprovements int `json:"significant_improvements"`
}

// metricSpec defines one top-line metric.
type metricSpec struct {
	name, unit string
	higher     bool
	get        func(*pipeline.Stats) float64
}

var metricSpecs = []metricSpec{
	{"ipc", "x86/cycle", true, func(s *pipeline.Stats) float64 { return s.IPC() }},
	{"cycles", "cycles", false, func(s *pipeline.Stats) float64 { return float64(s.Cycles) }},
	{"uops_retired", "uops", false, func(s *pipeline.Stats) float64 { return float64(s.UOpsRetired) }},
	{"uops_removed", "uops", true, func(s *pipeline.Stats) float64 { return float64(s.Opt.Removed()) }},
	{"frame_coverage", "frac", true, func(s *pipeline.Stats) float64 { return s.FrameCoverage() }},
}

// Compare joins two sides into the delta report.
func Compare(base, vari RunSide) *Report {
	r := &Report{
		Baseline: summarize(base),
		Variant:  summarize(vari),
	}

	// Join the two partitions on (trace, straight, header), zero-filling
	// rows present on one side only.
	type joined struct{ b, v *Row }
	cells := map[rowKey]*joined{}
	var order []rowKey
	index := func(rows []Row, pick func(*joined, *Row)) {
		for i := range rows {
			row := &rows[i]
			k := rowKey{trace: row.Trace, header: row.Header, straight: row.Straight}
			j := cells[k]
			if j == nil {
				j = &joined{}
				cells[k] = j
				order = append(order, k)
			}
			pick(j, row)
		}
	}
	index(base.Profile.Rows, func(j *joined, row *Row) { j.b = row })
	index(vari.Profile.Rows, func(j *joined, row *Row) { j.v = row })

	var zero Row
	for _, k := range order {
		j := cells[k]
		b, v := j.b, j.v
		if b == nil {
			b = &zero
		}
		if v == nil {
			v = &zero
		}
		ld := LoopDelta{
			Trace: k.trace, Header: k.header, Straight: k.straight,
			Tail: maxU32(b.Tail, v.Tail), Nest: max(b.Nest, v.Nest),
			BaseCycles: b.Cycles, VarCycles: v.Cycles,
			DCycles:        int64(v.Cycles) - int64(b.Cycles),
			BaseOptRemoved: b.OptRemoved, VarOptRemoved: v.OptRemoved,
			DOptRemoved:     int64(v.OptRemoved) - int64(b.OptRemoved),
			BaseUOpsRetired: b.UOpsRetired, VarUOpsRetired: v.UOpsRetired,
			DUOpsRetired: int64(v.UOpsRetired) - int64(b.UOpsRetired),
			DCovered:     int64(v.Covered) - int64(b.Covered),
			DFrameHits:   int64(v.FrameHits) - int64(b.FrameHits),
			Passes:       passDeltas(b.Passes, v.Passes),
		}
		r.Loops = append(r.Loops, ld)
	}
	sort.SliceStable(r.Loops, func(i, j int) bool {
		a, b := &r.Loops[i], &r.Loops[j]
		if da, db := absI64(a.DCycles), absI64(b.DCycles); da != db {
			return da > db
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		return a.Header < b.Header
	})

	// Total per-pass deltas are re-summed from the rows (not taken from
	// the profile's own totals), so Passes and Loops can never disagree.
	r.Passes = passDeltas(sumPasses(base.Profile.Rows), sumPasses(vari.Profile.Rows))
	r.Metrics = metricDeltas(&base.Stats, &vari.Stats)
	for _, m := range r.Metrics {
		switch m.Verdict {
		case VerdictRegressed:
			r.SignificantRegressions++
		case VerdictImproved:
			r.SignificantImprovements++
		}
	}

	// The honest residual: the Stats-counter deltas minus the summed
	// per-loop deltas. Zero whenever both probes' conservation held.
	var dRemoved, dCycles int64
	for i := range r.Loops {
		dRemoved += r.Loops[i].DOptRemoved
		dCycles += r.Loops[i].DCycles
	}
	bs, vs := &base.Stats, &vari.Stats
	r.ResidualUOpsRemoved = (int64(vs.Opt.Removed()) - int64(bs.Opt.Removed())) - dRemoved
	r.ResidualCycles = (int64(vs.Cycles) - int64(bs.Cycles)) - dCycles
	return r
}

func summarize(s RunSide) SideSummary {
	st := &s.Stats
	return SideSummary{
		Label:       s.Label,
		IPC:         st.IPC(),
		Cycles:      st.Cycles,
		X86:         st.X86Retired,
		UOpsRetired: st.UOpsRetired,
		UOpsRemoved: uint64(st.Opt.Removed()),
		Coverage:    st.FrameCoverage(),
		Loops:       len(s.Profile.Rows),
	}
}

// sumPasses folds the rows' per-pass counts into one total map.
func sumPasses(rows []Row) map[string]PassCount {
	var out map[string]PassCount
	for i := range rows {
		for name, pc := range rows[i].Passes {
			if out == nil {
				out = make(map[string]PassCount)
			}
			cur := out[name]
			cur.add(pc)
			out[name] = cur
		}
	}
	return out
}

// passDeltas joins two per-pass maps into deltas in opt.PassNames
// order, dropping passes absent on both sides.
func passDeltas(b, v map[string]PassCount) []PassDelta {
	ordered := opt.PassNames(b, v)
	if len(ordered) == 0 {
		return nil
	}
	out := make([]PassDelta, 0, len(ordered))
	for _, n := range ordered {
		bp, vp := b[n], v[n]
		out = append(out, PassDelta{
			Pass:       n,
			BaseKilled: bp.Killed, VarKilled: vp.Killed,
			DKilled:       int64(vp.Killed) - int64(bp.Killed),
			BaseRewritten: bp.Rewritten, VarRewritten: vp.Rewritten,
			DRewritten: int64(vp.Rewritten) - int64(bp.Rewritten),
		})
	}
	return out
}

// metricDeltas compares the top-line metrics of the two runs: a zero
// delta is unchanged, and a nonzero one improved or regressed by its
// sign and the metric's better-direction.
func metricDeltas(base, vari *pipeline.Stats) []MetricDelta {
	out := make([]MetricDelta, 0, len(metricSpecs))
	for _, spec := range metricSpecs {
		b, v := spec.get(base), spec.get(vari)
		delta := v - b
		verdict := VerdictUnchanged
		if delta != 0 {
			if (delta > 0) == spec.higher {
				verdict = VerdictImproved
			} else {
				verdict = VerdictRegressed
			}
		}
		better := "lower"
		if spec.higher {
			better = "higher"
		}
		out = append(out, MetricDelta{
			Name: spec.name, Unit: spec.unit, Better: better,
			Base: b, Var: v, Delta: delta, Verdict: verdict,
		})
	}
	return out
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
