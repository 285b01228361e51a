package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_seed0.json from full-budget seed-0 runs")

// tiny is the per-trace budget the tests run at.
var tiny = params{seed: 1, maxInsts: 3000}

func TestBenchmarkJSONMatchesList(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) || len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(e2eMetrics), len(layerMetrics))
	}
	for i, m := range spec.EndToEnd {
		check(m.Name)
		if (metricDef{m.Name, m.Unit, m.Better}) != e2eMetrics[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, benchmark %v", i, m, e2eMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		check(m.Name)
		if (metricDef{m.Name, m.Unit, m.Better}) != layerMetrics[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, benchmark %v", i, m, layerMetrics[i])
		}
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json has no setup_s")
	}
}

// TestSmoke runs every workload at a tiny budget, untraced and traced;
// every traced run must time every simulator layer.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			s, err := w.setup(tiny)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var rec *recorder
			if trace {
				rec = newRecorder(false)
			}
			// Long enough for replayd-mix to reach a cold cell.
			res := s.run(time.Now().Add(100*time.Millisecond), rec, &hostScale{})
			s.afterRun(rec, res)
			s.close()
			if res.failed != 0 || res.attempted == 0 || res.insts == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed, %d insts: %v",
					w.name, trace, res.failed, res.attempted, res.insts, res.failures)
			}
			for _, name := range append(simLayers, "frame.construct") {
				if trace && res.layers[name+"_ns_per_inst"] <= 0 {
					t.Errorf("%s: no %s time", w.name, name)
				}
			}
		}
	}
}

func TestTracedStatsMatchRunWorkload(t *testing.T) {
	rec := newRecorder(false)
	for _, name := range []string{"gzip", "excel"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p = seededProfiles([]workload.Profile{p}, params{seed: 2, maxInsts: 20_000})[0]
		want, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, sim.Options{DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		var got pipeline.Stats
		op := rec.newOp(1)
		root := op.begin("test", -1)
		for i := 0; i < p.Traces; i++ {
			st, err := tracedTrace(op, root, p, i, p.XInsts, pipeline.ModeRePLayOpt)
			if err != nil {
				t.Fatal(err)
			}
			got.Add(&st)
		}
		if got != want.Stats {
			t.Errorf("%s: traced Stats differ from sim.RunWorkload's:\n got %+v\nwant %+v", name, got, want.Stats)
		}
	}
}

// TestTraceExport checks the exported spans pass the validation
// cmd/tracecheck applies, and that the self times of all spans add up
// to the traced operations' wall time.
func TestTraceExport(t *testing.T) {
	w, err := workloadByName("desktop-cold")
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.setup(tiny)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rec := newRecorder(true)
	res := s.run(time.Now(), rec, &hostScale{})
	s.afterRun(rec, res)
	if res.failed != 0 {
		t.Fatal(res.failures)
	}
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	self, _ := rec.selfPerName()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if math.Abs(float64(sum-rec.rootDur)) > 0.001*float64(rec.rootDur) {
		t.Errorf("self times sum to %v, traced wall time is %v", sum, rec.rootDur)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0}, // overlaps a: covered once
		{name: "c", start: 15, end: 20, parent: 1},
	}
	got := selfTimes(spans)
	want := []time.Duration{50, 25, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3.2, 1.1, 7.7, 2.5, 9.9}, 1.8, 8.8},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	vals := func(xs ...float64) []metricValue {
		var out []metricValue
		for _, x := range xs {
			out = append(out, metricValue{Value: x})
		}
		return out
	}
	for _, c := range []struct {
		name, better string
		old, cur     []metricValue
		want         string
	}{
		{"same", "lower", vals(100, 101, 99, 100), vals(100, 100, 101, 99), "ok"},
		{"slower", "lower", vals(100, 101, 99, 100), vals(120, 121, 119, 120), "regression"},
		{"lower rate", "higher", vals(100, 101, 99, 100), vals(80, 81, 79, 80), "regression"},
		{"faster", "lower", vals(100, 101, 99, 100), vals(95, 96, 94, 95), "better"},
		{"noisy", "lower", vals(70, 100, 130, 100), vals(70, 100, 130, 100), "unresolved"},
		{"noisy but every run better", "lower", vals(90, 100, 130, 110), vals(60, 70, 89, 80), "better"},
		{"one report each, op quartiles", "lower",
			[]metricValue{{Value: 100, Q1: 70, Q3: 130, N: 30}}, []metricValue{{Value: 101, Q1: 71, Q3: 131, N: 30}}, "unresolved"},
	} {
		if got := judge(c.better, 0.1, c.old, c.cur).word; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGolden rewrites the committed seed-0 digests; it runs only with
// -update (the benchmark itself checks them on every seed-0 run).
func TestGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/golden_seed0.json")
	}
	golden := map[string]map[string]string{}
	for _, w := range workloads {
		s, err := w.setup(params{})
		if err != nil {
			t.Fatal(err)
		}
		golden[w.name] = s.run(time.Now(), nil, &hostScale{}).digests
		s.close()
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_seed0.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
