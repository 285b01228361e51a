package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// TestRunnerReceivesCollector: the server hands each job its own
// collectors — a histogram one stamping the request's trace ID as
// exemplars, plus a private event ring (labeled with the coalescing key)
// when the request asks for an event trace.
func TestRunnerReceivesCollector(t *testing.T) {
	type seen struct {
		cols []sim.Collector
		key  string
	}
	got := make(chan seen, 2)
	s := New(Config{Workers: 1, Runner: func(ctx context.Context, req api.RunRequest, cols []sim.Collector, progress func(api.Event)) (*api.RunResponse, error) {
		got <- seen{cols, req.Key()}
		return &api.RunResponse{Experiment: req.Experiment}, nil
	}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// split returns the job's histogram collector and event ring.
	split := func(cols []sim.Collector) (hist *telemetry.Histograms, ring *telemetry.Ring) {
		for _, c := range cols {
			switch c := c.(type) {
			case *telemetry.Histograms:
				hist = c
			case *telemetry.Ring:
				ring = c
			}
		}
		return hist, ring
	}

	plain := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 1000}
	if _, code := postRun(t, ts.URL+"/v1/run", plain); code != http.StatusOK {
		t.Fatalf("plain run: status %d", code)
	}
	g := <-got
	plainHist, ring := split(g.cols)
	if plainHist == nil {
		t.Fatal("plain job ran with no histogram collector")
	}
	if ring != nil {
		t.Errorf("plain job's collectors include a trace ring")
	}
	for _, c := range g.cols {
		if _, ok := c.(sim.Sampler); !ok {
			t.Errorf("plain job's collector %T bypasses the run memo", c)
		}
	}

	traced := plain
	traced.Trace = true
	if _, code := postRun(t, ts.URL+"/v1/run", traced); code != http.StatusOK {
		t.Fatalf("traced run: status %d", code)
	}
	g = <-got
	hist, ring := split(g.cols)
	if hist == nil || hist == plainHist {
		// Each job's histogram samples carry its own request's trace ID.
		t.Errorf("traced job's histogram collector = %p, want one distinct from the plain job's %p", hist, plainHist)
	}
	if ring == nil {
		t.Fatalf("traced job's collectors have no trace ring")
	}
	var buf bytes.Buffer
	if err := ring.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	if label := tf.OtherData["job"]; label != g.key {
		t.Errorf("trace label %v != coalescing key %q", label, g.key)
	}
	if plain.Key() == traced.Key() {
		t.Errorf("trace flag does not split the coalescing key")
	}
}

// TestTraceEndToEnd runs a real traced simulation through the HTTP
// surface and checks /debug/trace serves valid Chrome trace_event JSON
// carrying the job's coalescing key.
func TestTraceEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 20_000, Trace: true}
	env, code := postRun(t, ts.URL+"/v1/run", req)
	if code != http.StatusOK || env.State != api.StateDone {
		t.Fatalf("run: status %d state %s error %q", code, env.State, env.Error)
	}

	resp, err := http.Get(ts.URL + "/debug/trace?job=" + env.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(data); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range tf.TraceEvents {
		if e.Ph != "M" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("trace has no non-metadata events")
	}
	if got, want := tf.OtherData["job"], req.Key(); got != want {
		t.Errorf("otherData.job = %v, want %v", got, want)
	}

	// An untraced job has no ring.
	env2, code := postRun(t, ts.URL+"/v1/run", api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 20_000})
	if code != http.StatusOK {
		t.Fatalf("untraced run: status %d", code)
	}
	resp2, err := http.Get(ts.URL + "/debug/trace?job=" + env2.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job trace: status %d, want 404", resp2.StatusCode)
	}
}

// TestMetricsHistograms: after an executed (non-memoized) run, /metrics
// exposes the frame-lifecycle histograms in parseable Prometheus text
// format with samples.
func TestMetricsHistograms(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Trace forces execution, so the run observes into the histogram set
	// even when an identical run is already memoized process-wide. The
	// budget must be large enough that frames reach the optimizer inside
	// the measured (post-warmup) window.
	req := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 60_000, Trace: true}
	if env, code := postRun(t, ts.URL+"/v1/run", req); code != http.StatusOK {
		t.Fatalf("run: status %d state %s", code, env.State)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := stats.ParseProm(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	hists := map[string]stats.PromFamily{}
	for _, f := range fams {
		if f.Type == "histogram" {
			hists[f.Name] = f
		}
	}
	for _, name := range []string{
		"replay_frame_uops",
		"replay_opt_dwell_cycles",
		"replay_frame_cache_residency_cycles",
		"replay_fetch_retire_cycles",
	} {
		f, ok := hists[name]
		if !ok {
			t.Errorf("histogram %s missing from /metrics", name)
			continue
		}
		if len(f.Buckets) == 0 {
			t.Errorf("histogram %s has no buckets", name)
		}
		if f.Count == 0 && name != "replay_frame_cache_residency_cycles" {
			// Residency can legitimately be zero if nothing was evicted or
			// resident; the others must have samples after an executed run.
			t.Errorf("histogram %s has no samples", name)
		}
	}
	if len(hists) < 4 {
		t.Errorf("only %d histograms exposed, want >= 4", len(hists))
	}
}

// TestAttrExperimentWire: the attr experiment returns per-pass tables
// over the HTTP surface and the conservation invariant survives the
// JSON round trip.
func TestAttrExperimentWire(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := api.RunRequest{Experiment: "attr", Workloads: []string{"gzip"}, Insts: 60_000}
	env, code := postRun(t, ts.URL+"/v1/run", req)
	if code != http.StatusOK || env.State != api.StateDone {
		t.Fatalf("run: status %d state %s error %q", code, env.State, env.Error)
	}
	var res api.RunResponse
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Attr) != 1 {
		t.Fatalf("attr rows: %d", len(res.Attr))
	}
	row := res.Attr[0]
	if row.Workload != "gzip" || len(row.Passes) == 0 {
		t.Fatalf("bad attr row: %+v", row)
	}
	if got, want := row.KilledTotal(), uint64(row.Opt.Removed()); got != want {
		t.Errorf("killed %d != removed %d after JSON round trip", got, want)
	}
}
