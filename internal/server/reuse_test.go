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

	"repro/internal/api"
	"repro/internal/reuse"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestReuseEndToEnd runs a reuse job through the full HTTP surface and
// checks all three reuse views agree: the job result, the /debug/reuse
// report, and the replayd_reuse_* metric families on /metrics.
func TestReuseEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	env, status := postRun(t, ts.URL+"/v1/run", api.RunRequest{
		Experiment: "reuse", Workloads: []string{"gzip"}, Insts: 20_000})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, env.Error)
	}
	var res api.RunResponse
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Reuse == nil || len(res.Reuse.Rows) != 1 {
		t.Fatalf("reuse result missing or wrong shape: %+v", res.Reuse)
	}
	row := res.Reuse.Rows[0]
	if row.Workload != "gzip" || row.Report.Loops == 0 || row.Report.TotalUOps == 0 {
		t.Fatalf("implausible reuse row: %+v", row)
	}
	if len(res.Reuse.Subset) == 0 {
		t.Fatal("empty representative subset")
	}

	// /debug/reuse serves the same report the job result carries.
	resp, err := http.Get(ts.URL + "/debug/reuse?job=" + env.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/reuse: status %d", resp.StatusCode)
	}
	var dbg sim.ReuseReport
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	direct, _ := json.Marshal(res.Reuse)
	served, _ := json.Marshal(&dbg)
	if !bytes.Equal(direct, served) {
		t.Errorf("/debug/reuse diverged from the job result:\n got %s\nwant %s", served, direct)
	}

	// /metrics exposes the folded aggregates with HELP text, per-bucket
	// labels, and the loop-shape histograms.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, want := range []string{
		"# HELP replayd_reuse_jobs_total",
		"replayd_reuse_jobs_total 1",
		"# HELP replayd_reuse_loops_total",
		"# HELP replayd_reuse_uops_total",
		`replayd_reuse_uops_total{bucket="straight"}`,
		`replayd_reuse_uops_total{bucket="loop-d1"}`,
		`replayd_reuse_frame_hits_total{bucket=`,
		`replayd_reuse_opt_removed_total{bucket=`,
		"# TYPE replayd_reuse_loop_trip_count histogram",
		"replayd_reuse_loop_trip_count_count",
		"# TYPE replayd_reuse_loop_uops histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The per-bucket uop counters must sum to the report totals (the
	// conservation invariant surviving the metrics fold).
	var total uint64
	for i := range row.Report.Buckets {
		total += row.Report.Buckets[i].UOps
	}
	if total != row.Report.TotalUOps {
		t.Errorf("bucket uop sum %d != report total %d", total, row.Report.TotalUOps)
	}
}

// TestReuseMetricsFold checks the reuse rows of the report fold
// directly: two folded reports sum, and histogram exemplars carry the
// job trace ID.
func TestReuseMetricsFold(t *testing.T) {
	m := newReportMetrics()
	rep := &sim.ReuseReport{Rows: []sim.ReuseRow{{
		Workload: "w",
		Report: reuse.Report{
			Buckets: []reuse.BucketReport{
				{Label: "straight", BucketStat: reuse.BucketStat{UOps: 10, FrameHits: 1}},
				{Label: "loop-d1", BucketStat: reuse.BucketStat{UOps: 30, FrameHits: 4}},
			},
			Loops:       2,
			LoopEntries: 3,
			BackEdges:   11,
			TopLoops:    []reuse.Loop{{Header: 0x10, Entries: 1, BackEdges: 9, UOps: 500}},
		},
	}}}
	m.fold(&api.RunResponse{Reuse: rep}, "abc123")
	m.fold(&api.RunResponse{Reuse: rep}, "def456")

	var buf bytes.Buffer
	// Render through a real Prom writer so label quoting is exercised.
	m.render(stats.NewProm(&buf))
	out := buf.String()
	for _, want := range []string{
		"replayd_reuse_jobs_total 2",
		"replayd_reuse_loops_total 4",
		"replayd_reuse_back_edges_total 22",
		`replayd_reuse_uops_total{bucket="straight"} 20`,
		`replayd_reuse_uops_total{bucket="loop-d1"} 60`,
		`replayd_reuse_frame_hits_total{bucket="loop-d1"} 8`,
		`trace_id="def456"`, // last-fold exemplar on the trip histogram
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}
