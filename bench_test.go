package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (Section 6), plus ablation benches for the
// design choices DESIGN.md calls out. Each benchmark runs the relevant
// experiment on a reduced instruction budget (so `go test -bench=.`
// completes in minutes) and reports the figure's headline series through
// b.ReportMetric; `cmd/replaysim` prints the full-budget versions.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cycleprof"
	"repro/internal/diff"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/uop"
	"repro/internal/workload"
)

// benchInsts is the per-trace budget for benchmark runs.
const benchInsts = 60_000

// benchOpts returns the reduced-budget simulation options.
func benchOpts() sim.Options { return sim.Options{MaxInsts: benchInsts} }

// reportPct reports a percentage metric.
func reportPct(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
}

// BenchmarkSweepReuse measures the capture+memo layer on the shape of
// `replaysim -experiment all`: fig6, both breakdowns, table3 and fig9
// over a workload subset, back to back. The sub-benchmarks share code and
// differ only in sim.Options.DisableCache, so their ns/op ratio is the
// sweep-level speedup from interpreting each trace once and memoizing the
// repeated RP/RPO runs.
func BenchmarkSweepReuse(b *testing.B) {
	profiles := make([]workload.Profile, 0, 4)
	for _, n := range []string{"bzip2", "gzip", "vortex", "access"} {
		p, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	sweep := func(b *testing.B, o sim.Options) {
		if _, err := sim.Fig6(context.Background(), profiles, o); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.CycleBreakdown(context.Background(), profiles[:2], o); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.CycleBreakdown(context.Background(), profiles[2:], o); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Table3(context.Background(), profiles, o); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Fig9(context.Background(), profiles, o); err != nil {
			b.Fatal(err)
		}
	}
	for _, disable := range []bool{true, false} {
		disable := disable
		name := "cached"
		if disable {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.ResetCaches()
				sweep(b, sim.Options{MaxInsts: 30_000, DisableCache: disable})
			}
		})
	}
	sim.ResetCaches()
}

// BenchmarkTable1Workloads regenerates the workload set: per class, the
// trace capture rate and the stream shape (Table 1 plus the 1.4 micro-op
// ratio of Section 5.1.1).
func BenchmarkTable1Workloads(b *testing.B) {
	for _, p := range workload.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var insts, loads, uops int
			for i := 0; i < b.N; i++ {
				prog, err := workload.Generate(p, 0)
				if err != nil {
					b.Fatal(err)
				}
				rec, err := sim.Capture(prog, 20_000)
				if err != nil {
					b.Fatal(err)
				}
				insts, loads, uops = rec.Len(), 0, 0
				for j := range insts {
					d, _, _ := rec.At(j)
					uops += len(d.UOps)
					for _, u := range d.UOps {
						if u.Op == uop.LOAD {
							loads++
						}
					}
				}
			}
			b.ReportMetric(float64(uops)/float64(insts), "uops/x86inst")
			b.ReportMetric(1000*float64(loads)/float64(insts), "loads/kinst")
		})
	}
}

// BenchmarkFig6IPC regenerates Figure 6: x86 IPC under IC, TC, RP and RPO
// for every application, reporting the RPO-over-RP gain.
func BenchmarkFig6IPC(b *testing.B) {
	for _, p := range workload.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var rows []sim.Fig6Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = sim.Fig6(context.Background(), []workload.Profile{p}, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(r.IPC[0], "IPC-IC")
			b.ReportMetric(r.IPC[1], "IPC-TC")
			b.ReportMetric(r.IPC[2], "IPC-RP")
			b.ReportMetric(r.IPC[3], "IPC-RPO")
			reportPct(b, "%dIPC", r.Gain)
		})
	}
}

// benchBreakdown shares Figures 7 and 8: per-benchmark execution cycles
// classified by fetch event, RP vs RPO.
func benchBreakdown(b *testing.B, profiles []workload.Profile) {
	for _, p := range profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var rows []sim.BreakdownRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = sim.CycleBreakdown(context.Background(), []workload.Profile{p}, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(float64(r.RP.Cycles), "cycles-RP")
			b.ReportMetric(float64(r.RPO.Cycles), "cycles-RPO")
			for bin := pipeline.Bin(0); bin < pipeline.NumBins; bin++ {
				b.ReportMetric(float64(r.RPO.Bins[bin]), "RPO-"+bin.String())
			}
			// The paper's headline: the net reduction in Frame cycles.
			if r.RP.Bins[pipeline.BinFrame] > 0 {
				reportPct(b, "%frame-cycle-reduction",
					100*(1-float64(r.RPO.Bins[pipeline.BinFrame])/float64(r.RP.Bins[pipeline.BinFrame])))
			}
		})
	}
}

// BenchmarkFig7CycleBreakdownSPEC regenerates Figure 7 (SPEC).
func BenchmarkFig7CycleBreakdownSPEC(b *testing.B) {
	benchBreakdown(b, workload.SPECProfiles())
}

// BenchmarkFig8CycleBreakdownDesktop regenerates Figure 8 (desktop).
func BenchmarkFig8CycleBreakdownDesktop(b *testing.B) {
	benchBreakdown(b, workload.DesktopProfiles())
}

// BenchmarkTable3Removal regenerates Table 3: percent micro-ops removed,
// percent loads removed, and the IPC increase, per application.
func BenchmarkTable3Removal(b *testing.B) {
	for _, p := range workload.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var rows []sim.Table3Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = sim.Table3(context.Background(), []workload.Profile{p}, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			reportPct(b, "%uops-removed", r.UOpsRemoved)
			reportPct(b, "%loads-removed", r.LoadsRemoved)
			reportPct(b, "%dIPC", r.IPCIncrease)
			reportPct(b, "%coverage", 100*r.FrameCoverage)
		})
	}
}

// BenchmarkFig9Scope regenerates Figure 9: intra-block versus frame-level
// optimization gains over RP.
func BenchmarkFig9Scope(b *testing.B) {
	for _, p := range workload.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var rows []sim.Fig9Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = sim.Fig9(context.Background(), []workload.Profile{p}, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
			}
			reportPct(b, "%block", rows[0].Block)
			reportPct(b, "%frame", rows[0].Frame)
		})
	}
}

// BenchmarkFig10Ablation regenerates Figure 10: relative IPC with each
// optimization disabled, on the paper's five applications.
func BenchmarkFig10Ablation(b *testing.B) {
	var rows []sim.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.Fig10(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		for v, variant := range sim.Fig10Variants {
			name := strings.ReplaceAll(variant.Name, " ", "-")
			b.ReportMetric(r.Relative[v], r.Workload+"/"+name)
		}
	}
}

// BenchmarkAblationOptimizerLatency sweeps the optimization engine's
// per-micro-op latency (the paper's Section 4 design point: 10 cycles per
// micro-op, pipeline depth 3 "is sufficient").
func BenchmarkAblationOptimizerLatency(b *testing.B) {
	p, _ := workload.ByName("vortex")
	for _, lat := range []int{1, 10, 40, 160} {
		lat := lat
		b.Run(fmt.Sprintf("cyc%d", lat), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				o := benchOpts()
				o.ConfigMod = func(c *pipeline.Config) { c.OptCyclesPerUOp = lat }
				r, err = sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.IPC(), "IPC")
			reportPct(b, "%coverage", 100*r.Stats.FrameCoverage())
		})
	}
}

// BenchmarkAblationFrameSize sweeps the frame size limit (paper: 8-256).
func BenchmarkAblationFrameSize(b *testing.B) {
	p, _ := workload.ByName("bzip2")
	for _, max := range []int{32, 64, 128, 256} {
		max := max
		b.Run(fmt.Sprintf("max%d", max), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				o := benchOpts()
				o.ConfigMod = func(c *pipeline.Config) { c.FrameCfg.MaxUOps = max }
				r, err = sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.IPC(), "IPC")
			reportPct(b, "%uops-removed", 100*r.Stats.UOpReduction())
		})
	}
}

// BenchmarkAblationBiasThreshold sweeps the constructor's branch-bias
// promotion threshold.
func BenchmarkAblationBiasThreshold(b *testing.B) {
	p, _ := workload.ByName("crafty")
	for _, th := range []int{4, 16, 64} {
		th := th
		b.Run(fmt.Sprintf("bias%d", th), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				o := benchOpts()
				o.ConfigMod = func(c *pipeline.Config) { c.FrameCfg.BiasThreshold = th }
				r, err = sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.IPC(), "IPC")
			reportPct(b, "%coverage", 100*r.Stats.FrameCoverage())
		})
	}
}

// BenchmarkAblationSpeculation compares speculative memory optimization
// against the conservative variant on the aliasing-heavy workload.
func BenchmarkAblationSpeculation(b *testing.B) {
	p, _ := workload.ByName("excel")
	for _, spec := range []bool{true, false} {
		spec := spec
		name := "speculative"
		if !spec {
			name = "conservative"
		}
		b.Run(name, func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				o := benchOpts()
				o.ConfigMod = func(c *pipeline.Config) { c.OptOptions.Speculative = spec }
				r, err = sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.IPC(), "IPC")
			reportPct(b, "%loads-removed", 100*r.Stats.LoadReduction())
			reportPct(b, "%abort-rate", 100*float64(r.Stats.FrameAborts)/float64(r.Stats.FrameFetches+1))
		})
	}
}

// BenchmarkOptimizerThroughput measures the optimizer itself (software
// passes, not the modeled hardware latency): frames optimized per second.
func BenchmarkOptimizerThroughput(b *testing.B) {
	p, _ := workload.ByName("vortex")
	frames, err := sim.CollectFrames(p, 30_000, 64)
	if err != nil {
		b.Fatal(err)
	}
	if len(frames) == 0 {
		b.Fatal("no frames")
	}
	b.ResetTimer()
	uops := 0
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		of := opt.Remap(f, opt.ScopeFrame)
		st := opt.Optimize(of, opt.AllOptions())
		uops += st.UOpsIn
	}
	b.ReportMetric(float64(uops)/float64(b.N), "uops/frame")
}

// BenchmarkTelemetryOverhead pins the cost of the lifecycle histograms
// replayd attaches to every job, against no collector at all. Every
// sub-benchmark disables the capture and memo caches so each run
// executes the identical full simulation. "hist" attaches the
// histogram-only collector over one set, as replayd does: each engine
// run counts its lifecycle samples, one per dispatched micro-op among
// them, into its own tallies and folds them into the set when it ends.
// "shared" runs two simulations at once into one set under distinct
// trace IDs, as replayd's two workers do, so it sees what the runs'
// writes to the set cost each other; its ns/op covers both.
func BenchmarkTelemetryOverhead(b *testing.B) {
	p, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, probes []sim.Collector) {
		for i := 0; i < b.N; i++ {
			o := sim.Options{MaxInsts: 30_000, DisableCache: true, Probes: probes}
			if _, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, o); err != nil {
				b.Error(err)
				return
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("hist", func(b *testing.B) {
		run(b, []sim.Collector{telemetry.NewHistograms(telemetry.NewHistogramSet(), "")})
	})
	b.Run("shared", func(b *testing.B) {
		set := telemetry.NewHistogramSet()
		var wg sync.WaitGroup
		for _, id := range []string{"0af7651916cd43dd8448eb211c80319c", "4bf92f3577b34da6a3ce929d0e0e4736"} {
			wg.Add(1)
			go func(c sim.Collector) {
				defer wg.Done()
				run(b, []sim.Collector{c})
			}(telemetry.NewHistograms(set, id))
		}
		wg.Wait()
	})
}

// BenchmarkProbeOverhead pins the cost of the engine probes, mirroring
// BenchmarkTelemetryOverhead's shape. Probes have no enabled/disabled
// gate: detached ("off", the default for every non-probe run) each
// hook site pays one nil check, which must stay within noise of the
// un-instrumented pipeline. The other variants attach the reuse
// collector, the guest-cycle profiler, the diff probe, and all three
// at once over one shared loop stack: the price each experiment pays.
func BenchmarkProbeOverhead(b *testing.B) {
	p, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, probes func() []sim.Collector) {
		for i := 0; i < b.N; i++ {
			o := sim.Options{MaxInsts: 30_000, DisableCache: true, Probes: probes()}
			if _, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, o); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, v := range []struct {
		name   string
		probes func() []sim.Collector
	}{
		{"off", func() []sim.Collector { return nil }},
		{"reuse", func() []sim.Collector { return []sim.Collector{reuse.NewCollector()} }},
		{"cycles", func() []sim.Collector { return []sim.Collector{cycleprof.NewCollector()} }},
		{"diff", func() []sim.Collector { return []sim.Collector{diff.NewCollector()} }},
		{"all", func() []sim.Collector {
			return []sim.Collector{reuse.NewCollector(), cycleprof.NewCollector(), diff.NewCollector()}
		}},
	} {
		b.Run(v.name, func(b *testing.B) { run(b, v.probes) })
	}
}

// BenchmarkTracingOverhead pins the cost of the span-tracing
// instrumentation in sim and pipeline (internal/tracing), mirroring
// BenchmarkTelemetryOverhead's shape. The instrumentation is always
// compiled in, so the variants differ only in what the context carries:
//
//   - off: plain context — every tracing.Start site does one context
//     lookup, misses, and propagates a nil span whose methods no-op.
//   - disabled: the context passed through a gated-off Tracer's
//     StartRoot, which refuses the root — the path a request takes when
//     tracing is administratively off. Must be indistinguishable from
//     "off": the <2% acceptance bar is between these two.
//   - traced: a live root span from an enabled tracer, full span
//     assembly and tail-sampler offer (which drops the trace), for
//     reference on what enabling costs.
func BenchmarkTracingOverhead(b *testing.B) {
	p, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, ctx context.Context) {
		for i := 0; i < b.N; i++ {
			o := sim.Options{MaxInsts: 30_000, DisableCache: true}
			if _, err := sim.RunWorkload(ctx, p, pipeline.ModeRePLayOpt, o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, context.Background()) })
	b.Run("disabled", func(b *testing.B) {
		tr := tracing.NewTracer(nil)
		tr.SetEnabled(false)
		ctx, span := tr.StartRoot(context.Background(), "bench", nil)
		span.End()
		run(b, ctx)
	})
	b.Run("traced", func(b *testing.B) {
		store := tracing.NewStore(tracing.StoreConfig{
			Capacity:      4,
			SlowThreshold: time.Hour,
			SampleRate:    -1, // sampler drops every healthy trace: steady-state memory
		})
		tr := tracing.NewTracer(store)
		for i := 0; i < b.N; i++ {
			ctx, span := tr.StartRoot(context.Background(), "bench", nil)
			o := sim.Options{MaxInsts: 30_000, DisableCache: true}
			if _, err := sim.RunWorkload(ctx, p, pipeline.ModeRePLayOpt, o); err != nil {
				b.Fatal(err)
			}
			span.End()
		}
	})
}

// BenchmarkAblationReschedule compares buffer-order frames against the
// Section 4 position-field rescheduling (critical-path-first issue).
func BenchmarkAblationReschedule(b *testing.B) {
	p, _ := workload.ByName("photo") // chain-heavy: scheduling-sensitive
	for _, resched := range []bool{false, true} {
		resched := resched
		name := "buffer-order"
		if resched {
			name = "rescheduled"
		}
		b.Run(name, func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				o := benchOpts()
				o.ConfigMod = func(c *pipeline.Config) { c.OptReschedule = resched }
				r, err = sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.IPC(), "IPC")
		})
	}
}
