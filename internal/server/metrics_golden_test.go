package server

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cycleprof"
	"repro/internal/diff"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// settleFixed folds res into s's /metrics aggregates through the settle
// path, as a finished job carrying traceID would.
func settleFixed(s *Server, res *api.RunResponse, traceID string) {
	j := &job{
		traceID: traceID,
		log:     s.log,
		cancel:  func() {},
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.settle(j, res, nil)
}

// fixedReuseReport is a two-bucket reuse report with one heavy loop.
func fixedReuseReport() *sim.ReuseReport {
	return &sim.ReuseReport{Rows: []sim.ReuseRow{{
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
}

// fixedCycleReport attributes 40 cycles to two bins and one loop.
func fixedCycleReport() *sim.CycleReport {
	var r cycleprof.Report
	r.Cycles = 40
	r.Bins[pipeline.BinMispred] = 30
	r.Bins[pipeline.BinFrame] = 10
	r.Loops = []cycleprof.LoopCycles{{Header: 0x10, Cycles: 25}}
	return &sim.CycleReport{Rows: []sim.CycleRow{{Workload: "w", Report: r}}}
}

// fixedDiffReport has two workloads, three compared loops and verdicts
// in both directions.
func fixedDiffReport() *sim.DiffReport {
	return &sim.DiffReport{Baseline: "base", Variant: "var", Rows: []sim.DiffRow{
		{Workload: "a", Report: diff.Report{
			Loops:                  make([]diff.LoopDelta, 2),
			SignificantRegressions: 2, SignificantImprovements: 1,
		}},
		{Workload: "b", Report: diff.Report{
			Loops:                   make([]diff.LoopDelta, 1),
			SignificantImprovements: 3,
		}},
	}}
}

// goldenFamilies are the /metrics name prefixes the golden pins: the
// families folded from finished reports, and the request histogram.
var goldenFamilies = []string{
	"replayd_reuse_", "replayd_fetch_cycles_total", "replayd_cycleprof_",
	"replayd_diff_", "replayd_http_request_seconds",
}

// exemplarTs matches an exemplar annotation's trailing wall-clock
// timestamp, the only nondeterministic part of the exposition.
var exemplarTs = regexp.MustCompile(`(# \{trace_id="[^"]*"\} \S+) \d+\.\d+$`)

// TestReportMetricsGolden pins the exposition of the report-folded
// families and the request-latency histogram: fixed reuse, cycles and
// diff reports folded through settle, and fixed durations (one below
// the first bound, one exactly on a bound, one above the last) observed
// into the latency histogram. Run with -update to rewrite the golden.
func TestReportMetricsGolden(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	settleFixed(s, &api.RunResponse{Reuse: fixedReuseReport()}, "abc123")
	settleFixed(s, &api.RunResponse{Reuse: fixedReuseReport()}, "def456")
	settleFixed(s, &api.RunResponse{Cycles: fixedCycleReport()}, "c0ffee")
	settleFixed(s, &api.RunResponse{Cycles: fixedCycleReport()}, "")
	settleFixed(s, &api.RunResponse{Diff: fixedDiffReport()}, "d1ff00")
	for _, o := range []struct {
		d     time.Duration
		trace string
	}{
		{500 * time.Microsecond, "a0"},
		{time.Millisecond, "a1"},
		{30 * time.Millisecond, ""},
		{90 * time.Second, "a2"},
	} {
		s.httpHist.ObserveEx(o.d, o.trace)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var got strings.Builder
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		for _, prefix := range goldenFamilies {
			if strings.HasPrefix(name, prefix) {
				got.WriteString(exemplarTs.ReplaceAllString(line, "$1 <ts>") + "\n")
				break
			}
		}
	}

	path := filepath.Join("testdata", "report_metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("report metrics exposition changed (run with -update if intended):\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
