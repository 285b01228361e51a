package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// postWithTraceparent posts a run request carrying a client traceparent
// header and decodes the job envelope.
func postWithTraceparent(t *testing.T, url string, req api.RunRequest, tp string) (jobEnvelope, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tp != "" {
		hreq.Header.Set(tracing.TraceparentHeader, tp)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env jobEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return env, resp
}

// TestTracedRunEndToEnd is the acceptance path: one traced /run request
// with a client traceparent yields a stored trace whose spans cover the
// queue wait, the simulation windows, the pipeline engine, and at least
// one optimizer pass; the trace exports as valid Chrome trace_event
// JSON; and its trace ID appears as an exemplar on both the request
// latency histogram and the frame-lifecycle histograms.
func TestTracedRunEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	clientTP := tracing.Traceparent{
		Trace: tracing.NewTraceID(),
		Span:  tracing.NewSpanID(),
		Flags: tracing.FlagSampled,
	}
	tid := clientTP.Trace.String()

	// Trace:true forces execution (memo bypass), so the measured window
	// reaches the optimizer even if an identical run is already memoized
	// by another test in this process.
	req := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 60_000, Trace: true}
	env, resp := postWithTraceparent(t, ts.URL+"/v1/run", req, clientTP.String())
	if resp.StatusCode != http.StatusOK || env.State != api.StateDone {
		t.Fatalf("run: status %d state %s error %q", resp.StatusCode, env.State, env.Error)
	}
	if env.TraceID != tid {
		t.Errorf("job trace_id = %q, want the client trace %q", env.TraceID, tid)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Errorf("X-Trace-Id = %q, want %q", got, tid)
	}

	// The trace finalizes when its last span ends, which may trail the
	// response by a beat; settle and handler end spans concurrently.
	waitFor(t, "trace stored", func() bool { return s.traces.Get(tid) != nil })
	tr := s.traces.Get(tid)

	byName := map[string]int{}
	var root *tracing.SpanData
	for i, sp := range tr.Spans {
		byName[sp.Name]++
		if sp.Name == "POST /v1/run" {
			root = &tr.Spans[i]
		}
	}
	for _, want := range []string{
		"POST /v1/run", "job", "queue.wait", "job.exec",
		"sim.run", "sim.warmup", "sim.measure", "pipeline.run",
	} {
		if byName[want] == 0 {
			t.Errorf("trace lacks span %q; got %v", want, byName)
		}
	}
	optSpans := 0
	for name := range byName {
		if strings.HasPrefix(name, "opt.") {
			optSpans++
		}
	}
	if optSpans == 0 {
		t.Errorf("trace has no opt.<pass> spans; got %v", byName)
	}
	if root == nil {
		t.Fatal("no root span named POST /v1/run")
	}
	if root.Parent != clientTP.Span.String() {
		t.Errorf("root parent = %q, want the client's span %q", root.Parent, clientTP.Span.String())
	}

	// The trace appears in the listing and exports as Chrome trace_event
	// JSON that passes the same validator as telemetry's cycle-domain
	// exporter.
	lresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list []tracing.TraceSummary
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	found := false
	for _, sum := range list {
		if sum.TraceID == tid {
			found = true
			if sum.Spans != len(tr.Spans) {
				t.Errorf("summary spans = %d, want %d", sum.Spans, len(tr.Spans))
			}
		}
	}
	if !found {
		t.Errorf("trace %s missing from /debug/traces listing (%d entries)", tid, len(list))
	}
	cresp, err := http.Get(ts.URL + "/debug/traces/" + tid + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	chrome, err := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: status %d", cresp.StatusCode)
	}
	if err := telemetry.ValidateTrace(chrome); err != nil {
		t.Errorf("chrome export invalid: %v", err)
	}
	tresp, err := http.Get(ts.URL + "/debug/traces/" + tid + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(string(text), "sim.measure") {
		t.Errorf("text view lacks sim.measure:\n%s", text)
	}

	// The request latency observation lands after the response is
	// written; wait for the exemplar, then check it round-trips through
	// the Prometheus text format.
	waitFor(t, "latency exemplar", func() bool {
		for _, ex := range s.httpHist.Snapshot().Exemplars {
			if ex.TraceID == tid {
				return true
			}
		}
		return false
	})
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := stats.ParseProm(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exemplarFor := func(name string) string {
		for _, f := range fams {
			if f.Name != name {
				continue
			}
			for _, b := range f.Buckets {
				if b.Exemplar != nil && b.Exemplar.TraceID == tid {
					return b.Exemplar.TraceID
				}
			}
		}
		return ""
	}
	if exemplarFor("replayd_http_request_seconds") != tid {
		t.Errorf("replayd_http_request_seconds carries no exemplar for trace %s", tid)
	}
	// The traced job's collector stamps the same trace ID on the
	// frame-lifecycle histograms it observed into.
	if exemplarFor("replay_frame_uops") != tid {
		t.Errorf("replay_frame_uops carries no exemplar for trace %s", tid)
	}
}

// TestCoalescedFollowerLinksLeader: a request that coalesces onto an
// in-flight job gets its own (short) trace whose root span links to the
// leader job's trace, and its wire view names the leader's trace ID.
func TestCoalescedFollowerLinksLeader(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, Runner: g.run})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := api.RunRequest{Experiment: "fig6", Insts: 1_000}
	leader, lresp := postWithTraceparent(t, ts.URL+"/v1/jobs", req, "")
	if lresp.StatusCode != http.StatusAccepted {
		t.Fatalf("leader submit: status %d", lresp.StatusCode)
	}
	waitFor(t, "leader running", func() bool { return g.calls.Load() == 1 })

	followerTP := tracing.Traceparent{
		Trace: tracing.NewTraceID(),
		Span:  tracing.NewSpanID(),
		Flags: tracing.FlagSampled,
	}
	follower, fresp := postWithTraceparent(t, ts.URL+"/v1/jobs", req, followerTP.String())
	if fresp.StatusCode != http.StatusAccepted || !follower.Coalesced {
		t.Fatalf("follower submit: status %d coalesced %v", fresp.StatusCode, follower.Coalesced)
	}
	if follower.TraceID != leader.TraceID {
		t.Errorf("follower job trace = %q, want the leader's %q", follower.TraceID, leader.TraceID)
	}

	// The follower's own trace (only the request root) finalizes when
	// its handler returns; it must carry a link to the leader's trace.
	ftid := followerTP.Trace.String()
	waitFor(t, "follower trace stored", func() bool { return s.traces.Get(ftid) != nil })
	ftr := s.traces.Get(ftid)
	linked := false
	for _, sp := range ftr.Spans {
		for _, l := range sp.Links {
			if l.TraceID == leader.TraceID {
				linked = true
			}
		}
	}
	if !linked {
		t.Errorf("follower trace has no link to leader trace %s: %+v", leader.TraceID, ftr.Spans)
	}

	close(g.release)
	waitFor(t, "leader trace stored", func() bool { return s.traces.Get(leader.TraceID) != nil })
	ltr := s.traces.Get(leader.TraceID)
	names := map[string]int{}
	for _, sp := range ltr.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"POST /v1/jobs", "job", "queue.wait", "job.exec"} {
		if names[want] == 0 {
			t.Errorf("leader trace lacks span %q; got %v", want, names)
		}
	}
}

// TestFailedJobTraceKeptAsError: a job whose runner fails produces an
// error trace, which the tail sampler must retain even when the
// probabilistic gate would drop everything.
func TestFailedJobTraceKeptAsError(t *testing.T) {
	runner := func(ctx context.Context, req api.RunRequest, _ []sim.Collector, progress func(api.Event)) (*api.RunResponse, error) {
		if req.Experiment == "fig6" {
			return nil, context.DeadlineExceeded
		}
		return &api.RunResponse{Experiment: req.Experiment}, nil
	}
	// SampleRate < 0: the gate drops every non-error, non-slow trace.
	s := New(Config{Workers: 1, Runner: runner, TraceSample: -1, TraceSlow: time.Hour})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	env, resp := postWithTraceparent(t, ts.URL+"/v1/run", api.RunRequest{Experiment: "fig6"}, "")
	if resp.StatusCode != http.StatusInternalServerError || env.State != api.StateFailed {
		t.Fatalf("run: status %d state %s", resp.StatusCode, env.State)
	}
	waitFor(t, "error trace stored", func() bool { return s.traces.Get(env.TraceID) != nil })
	tr := s.traces.Get(env.TraceID)
	if !tr.Error || tr.Reason != "error" {
		t.Errorf("trace error=%v reason=%q, want an error-retained trace", tr.Error, tr.Reason)
	}
	st := s.traces.Stats()
	if st.KeptError == 0 {
		t.Errorf("sampler stats: %+v, want KeptError > 0", st)
	}

	// A healthy request on the same server is sampled out entirely.
	g, gresp := postWithTraceparent(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "table3"}, "")
	if gresp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", gresp.StatusCode)
	}
	waitFor(t, "healthy trace dropped", func() bool { return s.traces.Stats().Dropped >= 1 })
	if s.traces.Get(g.TraceID) != nil {
		t.Errorf("healthy trace %s retained despite the always-drop gate", g.TraceID)
	}
}

// TestTraceEndpointErrors pins the /debug/traces error surface.
func TestTraceEndpointErrors(t *testing.T) {
	s := New(Config{Workers: 1, Runner: func(ctx context.Context, req api.RunRequest, _ []sim.Collector, progress func(api.Event)) (*api.RunResponse, error) {
		return &api.RunResponse{Experiment: req.Experiment}, nil
	}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/debug/traces/not-hex", http.StatusBadRequest},
		{"/debug/traces/" + tracing.NewTraceID().String(), http.StatusNotFound},
		{"/debug/traces?limit=x", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}
