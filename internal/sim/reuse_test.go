package sim

import (
	"context"
	"testing"

	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/workload"
)

// reuseOptVariants are the optimizer configurations the conservation
// test exercises per profile: everything on, everything off, and two
// mixed subsets that change frame shapes (and so the attribution
// streams) in different ways.
var reuseOptVariants = []struct {
	name string
	mod  func(*pipeline.Config)
}{
	{"all", nil},
	{"none", func(c *pipeline.Config) { c.OptOptions = opt.Options{} }},
	{"no-spec", func(c *pipeline.Config) {
		c.OptOptions.Speculative = false
		c.OptOptions.SF = false
	}},
	{"block-scope", func(c *pipeline.Config) { c.OptScope = opt.ScopeIntraBlock }},
}

// TestReuseConservation pins the tentpole invariant for every workload
// profile under several optimizer subsets: the reuse decomposition's
// bucket sums equal the pipeline's own measured-window counters exactly
// — retired x86 instructions, baseline and retired micro-ops, frame
// builds, frame fetches, and optimizer removals. The probe hooks sit at
// the same call sites as the Stats increments and attach at the same
// warmup boundary, so any drift means a retirement or lifecycle path
// gained a counter without the matching probe call (the reuse analogue
// of the per-pass killed==Removed invariant).
func TestReuseConservation(t *testing.T) {
	for _, p := range workload.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, v := range reuseOptVariants {
				col := reuse.NewCollector()
				res, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
					Options{MaxInsts: 40_000, Probes: []Collector{col}, ConfigMod: v.mod, DisableCache: true})
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				rep := col.Snapshot()
				var sum reuse.BucketStat
				for i := range rep.Buckets {
					sum.Add(&rep.Buckets[i].BucketStat)
				}
				st := &res.Stats
				checks := []struct {
					what      string
					got, want uint64
				}{
					{"x86 retired", sum.X86, st.X86Retired},
					{"baseline uops", sum.UOps, st.UOpsBaseline},
					{"retired uops", sum.UOpsRetired, st.UOpsRetired},
					{"covered uops", sum.Covered, st.CoveredBaseline},
					{"frame builds", sum.FrameBuilds, st.FramesConstructed},
					{"frame hits", sum.FrameHits, st.FrameFetches},
					{"opt removed", sum.OptRemoved, uint64(st.Opt.Removed())},
				}
				for _, c := range checks {
					if c.got != c.want {
						t.Errorf("%s/%s: bucket-summed %s %d != pipeline %d",
							p.Name, v.name, c.what, c.got, c.want)
					}
				}
				var classes uint64
				for _, n := range sum.Classes {
					classes += n
				}
				if classes != sum.UOps {
					t.Errorf("%s/%s: class sum %d != baseline uops %d",
						p.Name, v.name, classes, sum.UOps)
				}
				if rep.TotalUOps == 0 {
					t.Errorf("%s/%s: empty reuse report", p.Name, v.name)
				}
			}
		})
	}
}

// TestReuseEndToEnd checks the experiment driver: rows come back in
// profile order with non-trivial loop structure, and the ranked subset
// covers the configured mass fraction at less than full-set cost.
func TestReuseEndToEnd(t *testing.T) {
	var ps []workload.Profile
	for _, name := range []string{"gzip", "access", "photo"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	rep, err := Reuse(context.Background(), ps, Options{MaxInsts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(ps) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(ps))
	}
	for i, r := range rep.Rows {
		if r.Workload != ps[i].Name {
			t.Errorf("row %d = %s, want %s (profile order)", i, r.Workload, ps[i].Name)
		}
		if r.Report.Loops == 0 || r.Report.LoopUOps == 0 {
			t.Errorf("%s: no loop structure detected (%d loops, %d loop uops)",
				r.Workload, r.Report.Loops, r.Report.LoopUOps)
		}
		if r.Insts == 0 {
			t.Errorf("%s: zero cost proxy", r.Workload)
		}
		if len(r.Report.TopLoops) == 0 {
			t.Errorf("%s: no top loops", r.Workload)
		}
	}
	if len(rep.Subset) == 0 {
		t.Fatal("empty representative subset")
	}
	last := rep.Subset[len(rep.Subset)-1]
	if last.Coverage < reuse.DefaultCoverage {
		t.Errorf("subset coverage %.3f < %.2f", last.Coverage, reuse.DefaultCoverage)
	}
	for i, p := range rep.Subset {
		if p.Rank != i+1 {
			t.Errorf("rank %d at position %d", p.Rank, i)
		}
	}
	// Determinism: the same inputs must produce the same subset.
	rep2, err := Reuse(context.Background(), ps, Options{MaxInsts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Subset) != len(rep.Subset) {
		t.Fatalf("subset size diverged: %d vs %d", len(rep2.Subset), len(rep.Subset))
	}
	for i := range rep.Subset {
		if rep.Subset[i] != rep2.Subset[i] {
			t.Errorf("subset rank %d diverged: %+v vs %+v", i+1, rep.Subset[i], rep2.Subset[i])
		}
	}
}

// TestReuseDoesNotPolluteMemo: a reuse run must not poison the run memo
// for subsequent plain runs, and a plain memoized run must not satisfy
// a reuse request (which needs execution).
func TestReuseDoesNotPolluteMemo(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, Options{MaxInsts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	col := reuse.NewCollector()
	withReuse, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
		Options{MaxInsts: 30_000, Probes: []Collector{col}})
	if err != nil {
		t.Fatal(err)
	}
	if col.Snapshot().TotalX86 == 0 {
		t.Fatal("reuse run served from memo: collector saw nothing")
	}
	if base.Stats != withReuse.Stats {
		t.Errorf("reuse attachment changed simulation results")
	}
}
