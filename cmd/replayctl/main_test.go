package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestPrintMetricsLatencyLabels renders a request-latency histogram over
// DefaultLatencyBounds and checks every bucket gets its own bar label
// (15 bounds plus +Inf), and that exemplars name their bucket the same
// way.
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
}
