package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/cycleprof"
	"repro/internal/diff"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/telemetry"
	"repro/internal/translate"
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
// unattributed residual is zero — and the metric verdicts are present.
// A self-diff of RPO on every profile, both sides executed, reads zero
// everywhere: one run per side is exact only while the simulator is
// deterministic, and this is the check that says so.
func TestDiffPairZeroResidual(t *testing.T) {
	t.Run("self", func(t *testing.T) {
		pairs := make([]DiffPair, len(workload.Profiles))
		for i := range workload.Profiles {
			p := &workload.Profiles[i]
			pairs[i] = DiffPair{Base: DiffSide{Profile: p, Mode: pipeline.ModeRePLayOpt},
				Variant: DiffSide{Profile: p, Mode: pipeline.ModeRePLayOpt}}
		}
		rep, err := Diff(context.Background(), pairs, Options{MaxInsts: 20_000, DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rep.Rows {
			r := &row.Report
			if r.ResidualUOpsRemoved != 0 || r.ResidualCycles != 0 {
				t.Errorf("%s: residuals (%d uops, %d cycles), want zero",
					row.Workload, r.ResidualUOpsRemoved, r.ResidualCycles)
			}
			if len(r.Loops) == 0 {
				t.Errorf("%s: no loop rows", row.Workload)
			}
			for _, l := range r.Loops {
				if l.DCycles != 0 || l.DOptRemoved != 0 || l.DUOpsRetired != 0 || l.DCovered != 0 || l.DFrameHits != 0 {
					t.Errorf("%s: loop %#x moved against itself: %+v", row.Workload, l.Header, l)
				}
				for _, pd := range l.Passes {
					if pd.DKilled != 0 || pd.DRewritten != 0 {
						t.Errorf("%s: loop %#x pass %s moved against itself: %+v", row.Workload, l.Header, pd.Pass, pd)
					}
				}
			}
			for _, pd := range r.Passes {
				if pd.DKilled != 0 || pd.DRewritten != 0 {
					t.Errorf("%s: pass %s moved against itself: %+v", row.Workload, pd.Pass, pd)
				}
			}
			for _, m := range r.Metrics {
				if m.Delta != 0 || m.Verdict != diff.VerdictUnchanged {
					t.Errorf("%s: metric %s delta %v verdict %q, want 0 unchanged",
						row.Workload, m.Name, m.Delta, m.Verdict)
				}
			}
			if r.SignificantRegressions != 0 || r.SignificantImprovements != 0 {
				t.Errorf("%s: self-diff counts %d regressed, %d improved",
					row.Workload, r.SignificantRegressions, r.SignificantImprovements)
			}
		}
	})

	for _, name := range []string{"gzip", "access"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range reuseOptVariants[1:] { // variants that actually differ
			base := DiffSide{Label: "baseline", Profile: &p, Mode: pipeline.ModeRePLayOpt}
			vari := DiffSide{Label: v.name, Profile: &p, Mode: pipeline.ModeRePLayOpt, ConfigMod: v.mod}
			rep, err := Diff(context.Background(), []DiffPair{{Base: base, Variant: vari}},
				Options{MaxInsts: 40_000, DisableCache: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v.name, err)
			}
			r := &rep.Rows[0].Report
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
// each row conservation-exact, side labels recorded, and the roll-up
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
	pairs := make([]DiffPair, len(ps))
	for i := range ps {
		pairs[i] = DiffPair{Base: DiffSide{Profile: &ps[i], Mode: pipeline.ModeRePLayOpt},
			Variant: DiffSide{Label: "no-opt", Profile: &ps[i], Mode: pipeline.ModeRePLayOpt, ConfigMod: noOpt}}
	}
	rep, err := Diff(context.Background(), pairs, Options{MaxInsts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline != "baseline" || rep.Variant != "no-opt" {
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

// TestAllProbesTogether attaches every observer at once — the reuse
// collector, the cycle profiler, the diff probe, and telemetry's
// lifecycle histograms and event ring — on one engine and checks each
// one's conservation held while the feeds fanned out, and
// that each collector's report is identical to the one it produces
// attached alone: the shared loop stack gives every probe the view its
// own detector would. The lifecycle histograms, a Sampler, also match
// beside the reuse collector alone, and no probe set changes the run's
// Stats. gzip runs one trace; excel's three fan out, and
// its reports must not depend on the schedule. Run under -race this
// also proves the fan-out paths are data-race-free.
func TestAllProbesTogether(t *testing.T) {
	for _, name := range []string{"gzip", "excel"} {
		t.Run(name, func(t *testing.T) {
			p, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// lifecycle builds telemetry's two collectors.
			lifecycle := func() (*telemetry.HistogramSet, *telemetry.Histograms, *telemetry.Ring) {
				set := telemetry.NewHistogramSet()
				return set, telemetry.NewHistograms(set, ""), telemetry.NewRing(1<<16, "", "")
			}
			hset, hcol, ring := lifecycle()
			rcol := reuse.NewCollector()
			ccol := cycleprof.NewCollector()
			dcol := diff.NewCollector()
			res, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
				Options{MaxInsts: 30_000, Probes: []Collector{rcol, ccol, dcol, hcol, ring},
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
			// The per-pass kills the attribution table reports, summed,
			// are the optimizer's net removal.
			var passKilled uint64
			for _, pc := range dprof.Passes {
				passKilled += pc.Killed
			}
			if passKilled != uint64(st.Opt.Removed()) {
				t.Errorf("diff pass kills %d != pipeline removed %d", passKilled, st.Opt.Removed())
			}

			// No probe set changes an unprobed run's Stats, the
			// histograms alone among them (no loop stack, no fan).
			unprobed, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
				Options{MaxInsts: 30_000, DisableCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if *st != unprobed.Stats {
				t.Errorf("all probes together changed the Stats")
			}
			attached := func(cs ...Collector) {
				res, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
					Options{MaxInsts: 30_000, Probes: cs, DisableCache: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats != unprobed.Stats {
					t.Errorf("Stats changed with %d probe(s) attached, first %T", len(cs), cs[0])
				}
			}
			rAlone, cAlone, dAlone := reuse.NewCollector(), cycleprof.NewCollector(), diff.NewCollector()
			hsetAlone, hAlone, ringAlone := lifecycle()
			for _, c := range []Collector{rAlone, cAlone, dAlone, hAlone, ringAlone} {
				attached(c)
			}
			// The histograms beside the reuse collector: a Sampler sharing
			// the probe list with a loop-stack reader.
			hsetPair, hPair, _ := lifecycle()
			rPair := reuse.NewCollector()
			attached(hPair, rPair)
			if got := rAlone.Snapshot(); !reflect.DeepEqual(rrep, got) {
				t.Errorf("reuse report differs attached alone:\n together %+v\n alone    %+v", rrep, got)
			}
			if got := rPair.Snapshot(); !reflect.DeepEqual(rrep, got) {
				t.Errorf("reuse report differs beside the histograms:\n together %+v\n pair     %+v", rrep, got)
			}
			if got := cAlone.Snapshot(); !reflect.DeepEqual(crep, got) {
				t.Errorf("cycleprof report differs attached alone")
			}
			if got := dAlone.Snapshot(); !reflect.DeepEqual(dprof, got) {
				t.Errorf("diff profile differs attached alone")
			}
			for i, h := range hset.All() {
				if got, want := hsetAlone.All()[i].Snapshot(), h.Snapshot(); !reflect.DeepEqual(want, got) {
					t.Errorf("histogram %s differs attached alone:\n together %+v\n alone    %+v", h.Name(), want, got)
				}
				if got, want := hsetPair.All()[i].Snapshot(), h.Snapshot(); !reflect.DeepEqual(want, got) {
					t.Errorf("histogram %s differs beside reuse:\n together %+v\n pair     %+v", h.Name(), want, got)
				}
			}
			var together, solo bytes.Buffer
			if err := ring.WriteTrace(&together); err != nil {
				t.Fatal(err)
			}
			if err := ringAlone.WriteTrace(&solo); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(together.Bytes(), solo.Bytes()) {
				t.Errorf("event ring differs attached alone (%d vs %d bytes)", together.Len(), solo.Len())
			}
		})
	}
	t.Run("schedule", func(t *testing.T) {
		// excel's reports and exported event ring must not depend on how
		// its three traces were scheduled: one at a time (parallelism 1,
		// the sweep job holds the only token, so its trace fan-out stays
		// on one goroutine) or concurrently (parallelism 4). The ring is
		// small enough to wrap, so the window it keeps depends on the
		// order runs reach it. Applying the folds, or writing ring
		// events, in arrival order fails this.
		p, err := workload.ByName("excel")
		if err != nil {
			t.Fatal(err)
		}
		type reports struct {
			reuse  reuse.Report
			cycles cycleprof.Report
			diff   diff.Profile
			trace  []byte
		}
		runAt := func(parallelism int) reports {
			old := SetParallelism(parallelism)
			defer SetParallelism(old)
			rcol, ccol, dcol := reuse.NewCollector(), cycleprof.NewCollector(), diff.NewCollector()
			ring := telemetry.NewRing(1<<11, "", "")
			var res Result
			var runErr error
			if err := runAll(context.Background(), []runJob{{src: profileSource(p), mode: pipeline.ModeRePLayOpt,
				opts: Options{MaxInsts: 30_000, DisableCache: true, Probes: []Collector{rcol, ccol, dcol, ring}},
				out:  &res, err: &runErr}}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ring.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			return reports{rcol.Snapshot(), ccol.Snapshot(), dcol.Snapshot(), buf.Bytes()}
		}
		serial, parallel := runAt(1), runAt(4)
		if bytes.Contains(serial.trace, []byte(`"dropped_events":0`)) {
			t.Fatal("event ring did not wrap; shrink it")
		}
		if !reflect.DeepEqual(serial.reuse, parallel.reuse) {
			t.Errorf("reuse report depends on scheduling")
		}
		if !reflect.DeepEqual(serial.cycles, parallel.cycles) {
			t.Errorf("cycleprof report depends on scheduling")
		}
		if !reflect.DeepEqual(serial.diff, parallel.diff) {
			t.Errorf("diff profile depends on scheduling")
		}
		if !bytes.Equal(serial.trace, parallel.trace) {
			t.Errorf("event ring export depends on scheduling (%d vs %d bytes)", len(serial.trace), len(parallel.trace))
		}
	})
}

// TestAttachProbesLoopsFirst pins the probe list's order: the shared
// loop stack advances before any probe sees a slot, so reuse buckets
// read the depth the slot executed at and diff rows the loop active
// after the slot's own back edge. The list comes from attachProbes,
// as in runTrace, and each slot goes to its probes in list order, as
// the engine calls them. A three-instruction loop body runs three
// times: its first iteration retires before the loop is known, and its
// first closing branch already belongs to the loop's row. Samplers
// alone get no loop stack.
func TestAttachProbesLoopsFirst(t *testing.T) {
	hist := telemetry.NewHistograms(telemetry.NewHistogramSet(), "")
	if probes, _ := attachProbes([]Collector{hist}, "", 0); len(probes) != 1 {
		t.Fatalf("lone Sampler: %d probes, want its own only", len(probes))
	}
	rcol, dcol := reuse.NewCollector(), diff.NewCollector()
	probes, folds := attachProbes([]Collector{rcol, dcol}, "", 0)
	for trip := 0; trip < 3; trip++ {
		next := uint32(0x10)
		if trip == 2 {
			next = 0x1c
		}
		for _, s := range []pipeline.Rec{
			{Entry: &translate.Entry{PC: 0x10, Inst: x86.Inst{Op: x86.OpADD, Len: 4}, UOps: []uop.UOp{{Op: uop.ADD}}}, NextPC: 0x14},
			{Entry: &translate.Entry{PC: 0x14, Inst: x86.Inst{Op: x86.OpMOV, Len: 4}, UOps: []uop.UOp{{Op: uop.LOAD}}}, NextPC: 0x18},
			{Entry: &translate.Entry{PC: 0x18, Ctl: translate.CtlCond, Inst: x86.Inst{Op: x86.OpJCC, Len: 4}, UOps: []uop.UOp{{Op: uop.BR}}}, NextPC: next},
		} {
			for _, p := range probes {
				p.SlotRetired(&s, false, 1)
			}
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
