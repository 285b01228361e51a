package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cycleprof"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// TestRunWorkloadSpans pins the span topology one traced run produces:
// sim.run → sim.warmup/sim.measure → pipeline.run, with per-pass
// opt.<pass> children under the measured window.
func TestRunWorkloadSpans(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	store := tracing.NewStore(tracing.StoreConfig{})
	tr := tracing.NewTracer(store)
	ctx, root := tr.StartRoot(context.Background(), "test-root", nil)

	if _, err := RunWorkload(ctx, p, pipeline.ModeRePLayOpt, Options{MaxInsts: 60_000, DisableCache: true}); err != nil {
		t.Fatal(err)
	}
	root.End()

	st := store.Get(root.TraceID().String())
	if st == nil {
		t.Fatal("no trace stored")
	}
	byName := map[string]int{}
	parents := map[string]string{}
	ids := map[string]string{} // span id -> name
	for _, sp := range st.Spans {
		byName[sp.Name]++
		ids[sp.SpanID] = sp.Name
	}
	for _, sp := range st.Spans {
		parents[sp.Name] = ids[sp.Parent]
	}
	for _, want := range []string{"sim.run", "sim.warmup", "sim.measure", "pipeline.run"} {
		if byName[want] == 0 {
			t.Errorf("missing span %q; got %v", want, byName)
		}
	}
	// RPO optimizes frames, so the measured window must report at least
	// one per-pass span (dce always runs).
	optSpans := 0
	for name := range byName {
		if strings.HasPrefix(name, "opt.") {
			optSpans++
		}
	}
	if optSpans == 0 {
		t.Errorf("no opt.<pass> spans; got %v", byName)
	}
	if byName["opt.dce"] == 0 {
		t.Errorf("no opt.dce span; got %v", byName)
	}
	if parents["sim.run"] != "test-root" {
		t.Errorf("sim.run parent = %q", parents["sim.run"])
	}
	if parents["sim.warmup"] != "sim.run" || parents["sim.measure"] != "sim.run" {
		t.Errorf("window parents: warmup=%q measure=%q", parents["sim.warmup"], parents["sim.measure"])
	}
	if parents["opt.dce"] != "sim.measure" {
		t.Errorf("opt.dce parent = %q", parents["opt.dce"])
	}
	// pipeline.run appears under both windows; spot-check one.
	if got := parents["pipeline.run"]; got != "sim.warmup" && got != "sim.measure" {
		t.Errorf("pipeline.run parent = %q", got)
	}
}

// TestRunWorkloadProbeSpanAttrs: a traced run with the reuse and cycle
// probes attached carries each probe's headline numbers on sim.run,
// and they agree with the collectors' own reports; a traced repeat of a
// plain run marks sim.run as a memo hit. Profiles and external traces
// share one driver, so an external run of gzip's slots must too.
func TestRunWorkloadProbeSpanAttrs(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 30_000
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Capture(prog, insts+ReplaySlack)
	if err != nil {
		t.Fatal(err)
	}
	ext := ExternalRun{Name: "gzip-upload", Fingerprint: "span-attrs-gzip", Recording: rec, Insts: insts}
	for _, c := range []struct {
		name string
		run  func(context.Context, Options) (Result, error)
	}{
		{"profile", func(ctx context.Context, o Options) (Result, error) {
			return RunWorkload(ctx, p, pipeline.ModeRePLayOpt, o)
		}},
		{"external", func(ctx context.Context, o Options) (Result, error) {
			return RunExternal(ctx, ext, pipeline.ModeRePLayOpt, o)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// traced runs once under a fresh trace and returns sim.run's attrs.
			traced := func(o Options) map[string]any {
				store := tracing.NewStore(tracing.StoreConfig{})
				ctx, root := tracing.NewTracer(store).StartRoot(context.Background(), "test-root", nil)
				if _, err := c.run(ctx, o); err != nil {
					t.Fatal(err)
				}
				root.End()
				st := store.Get(root.TraceID().String())
				if st == nil {
					t.Fatal("no trace stored")
				}
				var attrs map[string]any
				for _, sp := range st.Spans {
					if sp.Name == "sim.run" {
						attrs = sp.Attrs
					}
				}
				return attrs
			}
			rcol, ccol := reuse.NewCollector(), cycleprof.NewCollector()
			attrs := traced(Options{MaxInsts: insts, Probes: []Collector{rcol, ccol}})
			rrep, crep := rcol.Snapshot(), ccol.Snapshot()
			if got := attrs["reuse_loops"]; got != rrep.Loops || rrep.Loops == 0 {
				t.Errorf("sim.run reuse_loops = %v, want %d (nonzero)", got, rrep.Loops)
			}
			if got, want := attrs["cycles_mispred_frac"], crep.BinFrac(pipeline.BinMispred); got != want || want == 0 {
				t.Errorf("sim.run cycles_mispred_frac = %v, want %v (nonzero)", got, want)
			}
			traced(Options{MaxInsts: insts})
			if got := traced(Options{MaxInsts: insts})["memo_hit"]; got != true {
				t.Errorf("repeated sim.run memo_hit = %v, want true", got)
			}
		})
	}
}

// TestRunWorkloadUntracedNoSpans: without an active span in the
// context, the run must not touch the tracer at all.
func TestRunWorkloadUntracedNoSpans(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, Options{MaxInsts: 20_000}); err != nil {
		t.Fatal(err)
	}
}
