package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/stats"
)

// TestPrintMetricsLatencyLabels renders a request-latency histogram over
// DefaultLatencyBounds and checks every bucket gets its own bar label
// (15 bounds plus +Inf), and that exemplars name their bucket the same
// way. The header's mean must show the 2 ms sample, not round it to 0.
func TestPrintMetricsLatencyLabels(t *testing.T) {
	h := stats.NewLatencyHistogram("replayd_http_request_seconds", "API request latency.",
		stats.DefaultLatencyBounds...)
	h.ObserveEx(2*time.Millisecond, "0af7651916cd43dd8448eb211c80319c")
	var expo bytes.Buffer
	p := stats.NewProm(&expo)
	p.Histogram(h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := printMetrics(&expo, &out); err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	bars := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "le=") {
			labels[strings.Fields(line)[0]] = true
			bars++
		}
	}
	if want := len(stats.DefaultLatencyBounds) + 1; bars != want || len(labels) != want {
		t.Errorf("%d bars with %d distinct labels, want %d of each:\n%s", bars, len(labels), want, out.String())
	}
	for _, want := range []string{"le=0.001 ", "le=0.0025 ", "le=0.05 ", "le=0.25 ", "le=+Inf ",
		"exemplar le=0.0025: trace=0af7651916cd43dd8448eb211c80319c"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	_, header, ok := strings.Cut(out.String(), "(histogram): 1 samples, mean ")
	if !ok {
		t.Fatalf("no histogram header:\n%s", out.String())
	}
	header, _, _ = strings.Cut(header, "\n")
	if mean, err := strconv.ParseFloat(header, 64); err != nil || mean != 0.002 {
		t.Errorf("header mean %q, want 0.002", header)
	}
}

// TestJobTraceRejectsAsync: an async submission returns before the job
// finishes, so there is no trace to save; run refuses the pair before
// sending anything instead of dropping the flag.
func TestJobTraceRejectsAsync(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "unexpected", http.StatusTeapot)
	}))
	defer ts.Close()
	req := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Trace: true}
	err := run(ts.Client(), ts.URL, req, 1, true, false, t.TempDir()+"/job.json")
	if err == nil || !strings.Contains(err.Error(), "-async") {
		t.Fatalf("run(-async, -job-trace) = %v, want an error naming -async", err)
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("daemon saw %d request(s), want none", n)
	}
}
