package sim

import (
	"context"
	"testing"

	"repro/internal/cycleprof"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/workload"
)

// TestCycleConservation pins the tentpole invariant for every workload
// profile under several optimizer subsets: the profiler's per-PC ×
// per-bin cycle sums equal the pipeline's own measured-window counters
// exactly — Stats.Cycles in total and Stats.Bins bin by bin. The probe
// is invoked inside the engine's only two cycle-charging paths (tick
// and stallUntil) and attaches at the same warmup boundary ResetStats
// draws, so any drift means a new charge path bypassed those two
// functions.
func TestCycleConservation(t *testing.T) {
	for _, p := range workload.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, v := range reuseOptVariants {
				col := cycleprof.NewCollector()
				res, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
					Options{MaxInsts: 40_000, Probes: []Collector{col}, ConfigMod: v.mod, DisableCache: true})
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				rep := col.Snapshot()
				st := &res.Stats
				if rep.Cycles != st.Cycles {
					t.Errorf("%s/%s: attributed cycles %d != pipeline cycles %d",
						p.Name, v.name, rep.Cycles, st.Cycles)
				}
				if rep.Bins != st.Bins {
					t.Errorf("%s/%s: attributed bins %v != pipeline bins %v",
						p.Name, v.name, rep.Bins, st.Bins)
				}
				if rep.X86 != st.X86Retired {
					t.Errorf("%s/%s: per-PC x86 %d != pipeline %d",
						p.Name, v.name, rep.X86, st.X86Retired)
				}
				// The per-PC table must re-sum to the totals (the rollup
				// side of conservation).
				var cycles uint64
				var bins [pipeline.NumBins]uint64
				for i := range rep.PCs {
					cycles += rep.PCs[i].Cycles
					for b := range rep.PCs[i].Bins {
						bins[b] += rep.PCs[i].Bins[b]
					}
				}
				if cycles != rep.Cycles || bins != rep.Bins {
					t.Errorf("%s/%s: per-PC table sums (%d, %v) != report totals (%d, %v)",
						p.Name, v.name, cycles, bins, rep.Cycles, rep.Bins)
				}
				if rep.Cycles == 0 {
					t.Errorf("%s/%s: empty profile", p.Name, v.name)
				}
			}
		})
	}
}

// TestBinConservation is the pipeline-level sum(Bins) == Cycles
// invariant (previously an ad-hoc check inside TestModesSanity),
// promoted to cover every profile, the optimizer subsets, and both
// replay modes. Every cycle the engine advances must be charged to
// exactly one fetch bin — the accounting identity behind the paper's
// Figure 7/8 and behind the cycle profiler's attribution.
func TestBinConservation(t *testing.T) {
	modes := []pipeline.Mode{pipeline.ModeRePLay, pipeline.ModeRePLayOpt}
	for _, p := range workload.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range modes {
				for _, v := range reuseOptVariants {
					res, err := RunWorkload(context.Background(), p, mode,
						Options{MaxInsts: 30_000, ConfigMod: v.mod})
					if err != nil {
						t.Fatalf("%s/%s: %v", mode, v.name, err)
					}
					var binned uint64
					for _, n := range res.Stats.Bins {
						binned += n
					}
					if binned != res.Stats.Cycles {
						t.Errorf("%s/%s/%s: bins sum to %d, cycles %d",
							p.Name, mode, v.name, binned, res.Stats.Cycles)
					}
				}
			}
		})
	}
}

// TestCycleProfEndToEnd checks the experiment driver: rows in profile
// order, loop-joined hotspots present, and the pprof export conserving
// the measured cycle total.
func TestCycleProfEndToEnd(t *testing.T) {
	var ps []workload.Profile
	for _, name := range []string{"gzip", "access"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	rep, err := CycleProf(context.Background(), ps, Options{MaxInsts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(ps) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(ps))
	}
	var total uint64
	for i, r := range rep.Rows {
		if r.Workload != ps[i].Name {
			t.Errorf("row %d = %s, want %s (profile order)", i, r.Workload, ps[i].Name)
		}
		if r.Report.Cycles == 0 || len(r.Report.PCs) == 0 {
			t.Errorf("%s: empty profile", r.Workload)
		}
		if len(r.Report.Loops) == 0 {
			t.Errorf("%s: no loop-joined hotspots", r.Workload)
		}
		if r.IPC == 0 {
			t.Errorf("%s: zero IPC", r.Workload)
		}
		total += r.Report.Cycles
	}
	data, err := cycleprof.Profile(rep.Profiles())
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	_, got, err := cycleprof.ProfileTotal(data)
	if err != nil {
		t.Fatalf("ProfileTotal: %v", err)
	}
	if got != total {
		t.Fatalf("pprof total %d != measured cycles %d", got, total)
	}
}

// TestCycleProfDoesNotPolluteMemo: a profiled run must not poison the
// run memo for subsequent plain runs, a memoized plain run must not
// satisfy a profiling request (which needs execution), and attaching
// the profiler must not change simulation results.
func TestCycleProfDoesNotPolluteMemo(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, Options{MaxInsts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	col := cycleprof.NewCollector()
	withProf, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
		Options{MaxInsts: 30_000, Probes: []Collector{col}})
	if err != nil {
		t.Fatal(err)
	}
	if col.Snapshot().Cycles == 0 {
		t.Fatal("profiled run served from memo: collector saw nothing")
	}
	if base.Stats != withProf.Stats {
		t.Errorf("profiler attachment changed simulation results")
	}
}

// TestCycleProfWithReuse: both probes on one engine (the retirement
// feed tees) must leave each collector's conservation intact.
func TestCycleProfWithReuse(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	ccol := cycleprof.NewCollector()
	rcol := reuse.NewCollector()
	res, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
		Options{MaxInsts: 30_000, Probes: []Collector{ccol, rcol}})
	if err != nil {
		t.Fatal(err)
	}
	crep := ccol.Snapshot()
	if crep.Cycles != res.Stats.Cycles {
		t.Errorf("cycleprof: %d cycles != pipeline %d", crep.Cycles, res.Stats.Cycles)
	}
	rrep := rcol.Snapshot()
	if rrep.TotalX86 != res.Stats.X86Retired {
		t.Errorf("reuse: %d x86 != pipeline %d", rrep.TotalX86, res.Stats.X86Retired)
	}
}
