package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cycleprof"
	"repro/internal/diff"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/telemetry"
	"repro/internal/uop"
	"repro/internal/workload"
	"repro/internal/x86"
)

// TestDiffProbeConservation pins the tentpole invariant for every
// workload profile under several optimizer subsets: the diff probe's
// per-loop partition re-sums exactly to the pipeline's measured-window
// Stats counters — cycles (total and bin by bin), retired x86 and
// micro-ops, baseline and covered micro-ops, frame fetches, optimizer
// removals — and per row the summed pass kills equal the row's net
// removal (the per-loop form of the opt invariant).
func TestDiffProbeConservation(t *testing.T) {
	for _, p := range workload.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, v := range reuseOptVariants {
				col := diff.NewCollector()
				res, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
					Options{MaxInsts: 40_000, Probes: []Collector{col}, ConfigMod: v.mod, DisableCache: true})
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				prof := col.Snapshot()
				st := &res.Stats
				checks := []struct {
					what      string
					got, want uint64
				}{
					{"cycles", prof.Cycles, st.Cycles},
					{"x86 retired", prof.X86, st.X86Retired},
					{"baseline uops", prof.UOps, st.UOpsBaseline},
					{"retired uops", prof.UOpsRetired, st.UOpsRetired},
					{"covered uops", prof.Covered, st.CoveredBaseline},
					{"frame hits", prof.FrameHits, st.FrameFetches},
					{"opt removed", prof.OptRemoved, uint64(st.Opt.Removed())},
				}
				for _, c := range checks {
					if c.got != c.want {
						t.Errorf("%s/%s: partition-summed %s %d != pipeline %d",
							p.Name, v.name, c.what, c.got, c.want)
					}
				}
				if prof.Bins != st.Bins {
					t.Errorf("%s/%s: partition bins %v != pipeline %v",
						p.Name, v.name, prof.Bins, st.Bins)
				}
				// Per-row opt invariant: net removal == summed pass kills.
				for _, r := range prof.Rows {
					var killed uint64
					for _, pc := range r.Passes {
						killed += pc.Killed
					}
					if killed != r.OptRemoved {
						t.Errorf("%s/%s: row %#x pass kills %d != opt removed %d",
							p.Name, v.name, r.Header, killed, r.OptRemoved)
					}
				}
				if prof.Cycles == 0 || len(prof.Rows) == 0 {
					t.Errorf("%s/%s: empty diff profile", p.Name, v.name)
				}
			}
		})
	}
}

// TestDiffPairZeroResidual pins the acceptance invariant end to end:
// comparing a baseline against an ablated variant, the per-loop deltas
// sum exactly to the difference of the two runs' Stats counters — the
// unattributed residual is zero — and the gated metric verdicts are
// present.
func TestDiffPairZeroResidual(t *testing.T) {
	for _, name := range []string{"gzip", "access"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range reuseOptVariants[1:] { // variants that actually differ
			base := DiffSide{Label: "baseline", Profile: &p}
			vari := DiffSide{Label: v.name, Profile: &p, ConfigMod: v.mod}
			r, err := DiffPair(context.Background(), base, vari,
				Options{MaxInsts: 40_000, DisableCache: true}, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v.name, err)
			}
			if r.ResidualUOpsRemoved != 0 || r.ResidualCycles != 0 {
				t.Errorf("%s/%s: residuals (%d uops, %d cycles), want zero",
					name, v.name, r.ResidualUOpsRemoved, r.ResidualCycles)
			}
			if len(r.Loops) == 0 || len(r.Metrics) == 0 {
				t.Errorf("%s/%s: empty report", name, v.name)
			}
			for _, m := range r.Metrics {
				if m.Verdict == "" {
					t.Errorf("%s/%s: metric %s missing verdict", name, v.name, m.Name)
				}
			}
			// Cross-check: per-loop pass-kill deltas re-sum to the
			// OptRemoved delta of the whole comparison.
			var dKilled, dRemoved int64
			for _, l := range r.Loops {
				dRemoved += l.DOptRemoved
				for _, pd := range l.Passes {
					dKilled += pd.DKilled
				}
			}
			if dKilled != dRemoved {
				t.Errorf("%s/%s: pass-kill delta %d != opt-removed delta %d",
					name, v.name, dKilled, dRemoved)
			}
		}
	}
}

// TestDiffSweep checks the per-workload driver: rows in profile order,
// each row conservation-exact, repeats recorded, and the roll-up
// counters consistent with the rows.
func TestDiffSweep(t *testing.T) {
	var ps []workload.Profile
	for _, name := range []string{"gzip", "access"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	noOpt := func(c *pipeline.Config) { c.OptOptions = opt.Options{} }
	rep, err := Diff(context.Background(), ps, Options{MaxInsts: 40_000},
		DiffVariant{}, DiffVariant{Label: "no-opt", ConfigMod: noOpt, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repeats != 2 || rep.Variant != "no-opt" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Rows) != len(ps) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(ps))
	}
	loops := 0
	sawDelta := false
	for i, r := range rep.Rows {
		if r.Workload != ps[i].Name {
			t.Errorf("row %d = %s, want %s (profile order)", i, r.Workload, ps[i].Name)
		}
		if r.Report.ResidualUOpsRemoved != 0 || r.Report.ResidualCycles != 0 {
			t.Errorf("%s: residuals (%d, %d), want zero", r.Workload,
				r.Report.ResidualUOpsRemoved, r.Report.ResidualCycles)
		}
		// Disabling the optimizer passes can only shrink the measured
		// window's removal (frame construction itself still drops a few
		// micro-ops, so it need not reach zero).
		if r.Report.Variant.UOpsRemoved > r.Report.Baseline.UOpsRemoved {
			t.Errorf("%s: removal grew without passes: base=%d var=%d", r.Workload,
				r.Report.Baseline.UOpsRemoved, r.Report.Variant.UOpsRemoved)
		}
		if r.Report.Variant.UOpsRemoved < r.Report.Baseline.UOpsRemoved {
			sawDelta = true
		}
		loops += len(r.Report.Loops)
	}
	if !sawDelta {
		t.Errorf("no workload showed a removal delta under the ablation")
	}
	if rep.LoopsCompared() != loops {
		t.Errorf("LoopsCompared = %d, want %d", rep.LoopsCompared(), loops)
	}
}

// TestDiffDoesNotPolluteMemo: a diff-probed run must not poison the run
// memo, a memoized plain run must not satisfy a probed request, and the
// probe must not change simulation results.
func TestDiffDoesNotPolluteMemo(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, Options{MaxInsts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	col := diff.NewCollector()
	probed, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
		Options{MaxInsts: 30_000, Probes: []Collector{col}})
	if err != nil {
		t.Fatal(err)
	}
	if col.Snapshot().Cycles == 0 {
		t.Fatal("probed run served from memo: collector saw nothing")
	}
	if base.Stats != probed.Stats {
		t.Errorf("diff probe attachment changed simulation results")
	}
}

// TestAllProbesTogether attaches every observer at once — telemetry
// attribution, the reuse collector, the cycle profiler, and the diff
// probe — on one engine and checks each one's conservation held while
// the feeds fanned out, and that each collector's report is identical
// to the one it produces attached alone: the shared loop stack gives
// every probe the view its own detector would. Run under -race this
// also proves the fan-out paths are data-race-free.
func TestAllProbesTogether(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Config{Attribution: true})
	rcol := reuse.NewCollector()
	ccol := cycleprof.NewCollector()
	dcol := diff.NewCollector()
	res, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
		Options{MaxInsts: 30_000, Telemetry: tel, Probes: []Collector{rcol, ccol, dcol},
			DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Stats

	rrep := rcol.Snapshot()
	if rrep.TotalX86 != st.X86Retired {
		t.Errorf("reuse: %d x86 != pipeline %d", rrep.TotalX86, st.X86Retired)
	}
	crep := ccol.Snapshot()
	if crep.Cycles != st.Cycles {
		t.Errorf("cycleprof: %d cycles != pipeline %d", crep.Cycles, st.Cycles)
	}
	dprof := dcol.Snapshot()
	if dprof.Cycles != st.Cycles || dprof.X86 != st.X86Retired ||
		dprof.OptRemoved != uint64(st.Opt.Removed()) {
		t.Errorf("diff: (%d cycles, %d x86, %d removed) != pipeline (%d, %d, %d)",
			dprof.Cycles, dprof.X86, dprof.OptRemoved,
			st.Cycles, st.X86Retired, st.Opt.Removed())
	}
	// Telemetry's pass attribution and the diff partition fed from the
	// same recorder fan-out must agree on total kills.
	var telKilled, diffKilled uint64
	for _, ps := range tel.AttributionSnapshot() {
		telKilled += uint64(ps.Killed)
	}
	for _, pc := range dprof.Passes {
		diffKilled += pc.Killed
	}
	if telKilled != diffKilled {
		t.Errorf("telemetry kills %d != diff partition kills %d", telKilled, diffKilled)
	}

	alone := func(c Collector) {
		if _, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
			Options{MaxInsts: 30_000, Probes: []Collector{c}, DisableCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	rAlone, cAlone, dAlone := reuse.NewCollector(), cycleprof.NewCollector(), diff.NewCollector()
	alone(rAlone)
	alone(cAlone)
	alone(dAlone)
	if got := rAlone.Snapshot(); !reflect.DeepEqual(rrep, got) {
		t.Errorf("reuse report differs attached alone:\n together %+v\n alone    %+v", rrep, got)
	}
	if got := cAlone.Snapshot(); !reflect.DeepEqual(crep, got) {
		t.Errorf("cycleprof report differs attached alone")
	}
	if got := dAlone.Snapshot(); !reflect.DeepEqual(dprof, got) {
		t.Errorf("diff profile differs attached alone")
	}
}

// TestProbeFanAdvancesLoopsFirst pins the fan-out's order: the shared
// loop stack advances before any probe sees a slot, so reuse buckets
// read the depth the slot executed at and diff rows the loop active
// after the slot's own back edge. A three-instruction loop body runs
// three times: its first iteration retires before the loop is known,
// and its first closing branch already belongs to the loop's row.
func TestProbeFanAdvancesLoopsFirst(t *testing.T) {
	rcol, dcol := reuse.NewCollector(), diff.NewCollector()
	fan := &probeFan{}
	var folds []func()
	for _, c := range []Collector{rcol, dcol} {
		p, done := c.Attach(0, &fan.loops)
		fan.probes = append(fan.probes, p)
		folds = append(folds, done)
	}
	for trip := 0; trip < 3; trip++ {
		next := uint32(0x10)
		if trip == 2 {
			next = 0x1c
		}
		for _, s := range []pipeline.Slot{
			{PC: 0x10, NextPC: 0x14, Inst: x86.Inst{Op: x86.OpADD, Len: 4}, UOps: []uop.UOp{{Op: uop.ADD}}},
			{PC: 0x14, NextPC: 0x18, Inst: x86.Inst{Op: x86.OpMOV, Len: 4}, UOps: []uop.UOp{{Op: uop.LOAD}}},
			{PC: 0x18, NextPC: next, Inst: x86.Inst{Op: x86.OpJCC, Len: 4}, UOps: []uop.UOp{{Op: uop.BR}}},
		} {
			fan.SlotRetired(s, false, 1)
		}
	}
	for _, done := range folds {
		done()
	}

	rep := rcol.Snapshot()
	if got := [2]uint64{rep.Bucket(0).X86, rep.Bucket(1).X86}; got != [2]uint64{3, 6} {
		t.Errorf("reuse straight/d1 x86 = %v, want [3 6]", got)
	}
	prof := dcol.Snapshot()
	var straight, loop uint64
	for _, r := range prof.Rows {
		if r.Straight {
			straight += r.X86
		} else {
			loop += r.X86
		}
	}
	if straight != 2 || loop != 7 {
		t.Errorf("diff straight/loop x86 = %d/%d, want 2/7", straight, loop)
	}
}
