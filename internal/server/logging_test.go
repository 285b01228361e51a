package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/logtest"
	"repro/internal/sim"
)

// TestRequestScopedLogging: a request travels through submission,
// execution and completion with every structured log line carrying the
// job ID and coalescing key, and the same job ID appears on every line
// of the NDJSON progress stream — so logs and progress join on it.
func TestRequestScopedLogging(t *testing.T) {
	h := logtest.NewHandler()
	runner := func(ctx context.Context, req api.RunRequest, _ []sim.Collector, progress func(api.Event)) (*api.RunResponse, error) {
		progress(api.Event{Msg: "halfway", Done: 1, Total: 2})
		return &api.RunResponse{Experiment: req.Experiment}, nil
	}
	s := New(Config{Workers: 1, Runner: runner, Logger: slog.New(h)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	env, status := postRun(t, ts.URL+"/v1/run", api.RunRequest{Experiment: "summary"})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, env.Error)
	}
	if env.ID == "" {
		t.Fatal("no job id in response")
	}

	// Every lifecycle line must carry the job's ID and coalescing key.
	want := []string{"job accepted", "job started", "job finished"}
	for _, msg := range want {
		recs := h.ByMessage(msg)
		if len(recs) != 1 {
			t.Fatalf("%q logged %d times, want 1", msg, len(recs))
		}
		if !recs[0].Has("job_id", env.ID) {
			t.Errorf("%q record lacks job_id=%s: %v", msg, env.ID, recs[0].Attrs)
		}
		if v, ok := recs[0].Attrs["key"]; !ok || v == "" {
			t.Errorf("%q record lacks the coalescing key: %v", msg, recs[0].Attrs)
		}
	}
	fin := h.ByMessage("job finished")[0]
	if !fin.Has("outcome", api.StateDone) {
		t.Errorf("finish outcome = %v, want done", fin.Attrs["outcome"])
	}
	if _, ok := fin.Attrs["queue_wait_ms"]; !ok {
		t.Errorf("finish record lacks queue_wait_ms: %v", fin.Attrs)
	}

	// The NDJSON progress stream must carry the same job ID on every
	// event, including runner progress lines.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	events := 0
	sawProgress := false
	for sc.Scan() {
		var e api.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if e.JobID != env.ID {
			t.Errorf("event %d carries job %q, want %q", e.Seq, e.JobID, env.ID)
		}
		if e.Msg == "halfway" {
			sawProgress = true
		}
		events++
	}
	if events == 0 || !sawProgress {
		t.Fatalf("streamed %d events (progress seen: %v)", events, sawProgress)
	}

	// A duplicate of a finished job is a fresh job; a duplicate of an
	// in-flight one logs a coalescing line with the same job id.
	g := newGatedRunner()
	s2 := New(Config{Workers: 1, Runner: g.run, Logger: slog.New(h)})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	first := make(chan jobEnvelope, 1)
	go func() {
		env, _ := postRunQuiet(ts2.URL+"/v1/run", api.RunRequest{Experiment: "summary"})
		first <- env
	}()
	waitFor(t, "first job running", func() bool { return g.calls.Load() == 1 })
	env2, status := postRun(t, ts2.URL+"/v1/jobs", api.RunRequest{Experiment: "summary"})
	if status != http.StatusAccepted || !env2.Coalesced {
		t.Fatalf("duplicate submit: status %d coalesced %v", status, env2.Coalesced)
	}
	recs := h.ByMessage("request coalesced onto in-flight job")
	if len(recs) != 1 || !recs[0].Has("job_id", env2.ID) {
		t.Fatalf("coalescing log records = %+v, want one with job_id=%s", recs, env2.ID)
	}
	close(g.release)
	<-first
}

// postRunQuiet is postRun without the testing.T plumbing, for use in
// goroutines.
func postRunQuiet(url string, req api.RunRequest) (jobEnvelope, int) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return jobEnvelope{}, 0
	}
	defer resp.Body.Close()
	var env jobEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return env, resp.StatusCode
}

// TestQueueFullLoggedWithRetryAfter: a submission rejected by the
// bounded queue is logged (not silently dropped) and the 503 carries a
// Retry-After hint derived from the backlog.
func TestQueueFullLoggedWithRetryAfter(t *testing.T) {
	h := logtest.NewHandler()
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: g.run, Logger: slog.New(h)})
	defer func() {
		close(g.release)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the worker, then the queue: distinct keys so nothing
	// coalesces. Async submissions keep the jobs alive without waiters.
	if _, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "fig6"}); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	waitFor(t, "worker occupied", func() bool { return g.calls.Load() == 1 })
	if _, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "fig9"}); status != http.StatusAccepted {
		t.Fatalf("second submit: status %d", status)
	}

	body, _ := json.Marshal(api.RunRequest{Experiment: "table3"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 carries no Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 300 {
		t.Fatalf("Retry-After = %q, want an integer in [1,300]", ra)
	}

	recs := h.ByMessage("job queue full, rejecting request")
	if len(recs) != 1 {
		t.Fatalf("rejection logged %d times, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Level != slog.LevelWarn {
		t.Errorf("rejection level = %v, want WARN", rec.Level)
	}
	for _, attr := range []string{"key", "queue_depth", "retry_after_s"} {
		if _, ok := rec.Attrs[attr]; !ok {
			t.Errorf("rejection record lacks %s: %v", attr, rec.Attrs)
		}
	}
}

// TestMetricsRuntimeAndSLO: /metrics exposes the Go runtime gauges and
// the request-latency histogram after traffic has flowed.
func TestMetricsRuntimeAndSLO(t *testing.T) {
	runner := func(ctx context.Context, req api.RunRequest, _ []sim.Collector, progress func(api.Event)) (*api.RunResponse, error) {
		return &api.RunResponse{Experiment: req.Experiment}, nil
	}
	s := New(Config{Workers: 1, Runner: runner})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, status := postRun(t, ts.URL+"/v1/run", api.RunRequest{Experiment: "summary"}); status != http.StatusOK {
		t.Fatalf("run status %d", status)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	out := sb.String()
	for _, want := range []string{
		"replayd_go_heap_objects_bytes",
		"replayd_go_goroutines",
		"replayd_go_gc_pause_seconds_p99",
		"replayd_go_sched_latency_seconds_p50",
		"# TYPE replayd_http_request_seconds histogram",
		`replayd_http_request_seconds_bucket{le="+Inf"}`,
		"replayd_http_request_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The /v1/run request above must have fed the since-boot histogram.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "replayd_http_request_seconds_count ") {
			n, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil || n < 1 {
				t.Errorf("latency sample count = %q, want >= 1", line)
			}
		}
	}
}
