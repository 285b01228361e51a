package server

import (
	"net/http"
	"slices"
	"sync"

	"repro/internal/api"
	"repro/internal/cycleprof"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/sim"
	"repro/internal/stats"
)

// reportKind is one per-experiment report a finished job carries: where
// it is served, how it is named in errors, the representations besides
// JSON, and the /metrics families it folds into when the job settles.
type reportKind struct {
	path       string // the GET route, served with ?job=ID
	what       string // the report's name in error messages
	experiment string // the experiment that produces it
	// report returns the result's report, ok=false when it has none.
	report  func(*api.RunResponse) (rep any, ok bool)
	formats []reportFormat
	metrics []metricRow
}

// reportFormat is a non-JSON representation, selected by ?format=name.
// A non-empty filename makes the response an attachment.
type reportFormat struct {
	name, contentType, filename string
	encode                      func(*api.RunResponse) ([]byte, error)
}

// metricRow is one /metrics family summed across the finished jobs of
// its report kind: a counter, a counter with one sample per label
// value, or (with bounds) a histogram whose bucket exemplars carry a
// contributing job's trace ID.
type metricRow struct {
	name, help string
	label      string    // label name of a labeled counter
	values     []string  // its label values, in exposition order
	bounds     []float64 // histogram bucket bounds
	// add reports a finished job's contribution: a counter adds v to
	// label value i (0 when unlabeled); a histogram observes v.
	add func(res *api.RunResponse, add emit)
}

// emit takes one contribution: v for label value i, or one histogram
// observation.
type emit = func(i int, v uint64)

// countJob is the contribution of a jobs_total row.
func countJob(_ *api.RunResponse, add emit) { add(0, 1) }

// overReuse sums a per-workload contribution over a reuse report.
func overReuse(f func(r *reuse.Report, add emit)) func(*api.RunResponse, emit) {
	return func(res *api.RunResponse, add emit) {
		for i := range res.Reuse.Rows {
			f(&res.Reuse.Rows[i].Report, add)
		}
	}
}

// bucketRow is a reuse counter labeled by loop-depth bucket, adding
// field f of each bucket.
func bucketRow(name string, f func(*reuse.BucketStat) uint64, help string) metricRow {
	return metricRow{name: name, help: help, label: "bucket", values: bucketLabels,
		add: overReuse(func(r *reuse.Report, add emit) {
			for i := range r.Buckets {
				add(i, f(&r.Buckets[i].BucketStat))
			}
		})}
}

// overCycles sums a per-workload contribution over a cycle report.
func overCycles(f func(r *cycleprof.Report, add emit)) func(*api.RunResponse, emit) {
	return func(res *api.RunResponse, add emit) {
		for i := range res.Cycles.Rows {
			f(&res.Cycles.Rows[i].Report, add)
		}
	}
}

// diffTotal adds one total of a diff report.
func diffTotal(f func(*sim.DiffReport) int) func(*api.RunResponse, emit) {
	return func(res *api.RunResponse, add emit) { add(0, uint64(f(res.Diff))) }
}

// bucketLabels and binLabels are the label values of the loop-depth
// bucket and fetch-bin counters.
var bucketLabels, binLabels = func() (buckets, bins []string) {
	for i := 0; i < reuse.NumBuckets; i++ {
		buckets = append(buckets, reuse.BucketLabel(i))
	}
	for b := pipeline.Bin(0); b < pipeline.NumBins; b++ {
		bins = append(bins, b.String())
	}
	return buckets, bins
}()

// reportKinds is the registry behind the report routes, in /metrics
// render order.
var reportKinds = []reportKind{
	{
		path: "/debug/reuse", what: "reuse report", experiment: api.ExpReuse,
		report: func(r *api.RunResponse) (any, bool) { return r.Reuse, r.Reuse != nil },
		// Memoization never skips reuse runs, so every reuse job
		// contributes. The histograms observe each workload's heaviest
		// loops (Report.TopLoops): the tail that frame-cache sizing
		// cares about.
		metrics: []metricRow{
			{name: "replayd_reuse_jobs_total", add: countJob,
				help: "Reuse-experiment jobs whose reports were folded into these aggregates."},
			{name: "replayd_reuse_loops_total", add: overReuse(func(r *reuse.Report, add emit) { add(0, uint64(r.Loops)) }),
				help: "Distinct loops detected across reuse-experiment runs."},
			{name: "replayd_reuse_loop_entries_total", add: overReuse(func(r *reuse.Report, add emit) { add(0, r.LoopEntries) }),
				help: "Loop activations (entries from outside the loop body) across reuse-experiment runs."},
			{name: "replayd_reuse_back_edges_total", add: overReuse(func(r *reuse.Report, add emit) { add(0, r.BackEdges) }),
				help: "Taken backward control transfers recognized as loop back edges across reuse-experiment runs."},
			bucketRow("replayd_reuse_uops_total", func(b *reuse.BucketStat) uint64 { return b.UOps },
				"Baseline retired micro-ops attributed to each loop-depth bucket; summed over buckets this equals replayd_pipeline_uops_baseline_total restricted to reuse runs."),
			bucketRow("replayd_reuse_covered_uops_total", func(b *reuse.BucketStat) uint64 { return b.Covered },
				"Micro-ops retired from frames (reuse-covered work) attributed to each loop-depth bucket."),
			bucketRow("replayd_reuse_frame_builds_total", func(b *reuse.BucketStat) uint64 { return b.FrameBuilds },
				"Frames constructed while execution sat in each loop-depth bucket."),
			bucketRow("replayd_reuse_frame_hits_total", func(b *reuse.BucketStat) uint64 { return b.FrameHits },
				"Frame-cache fetches while execution sat in each loop-depth bucket."),
			bucketRow("replayd_reuse_opt_removed_total", func(b *reuse.BucketStat) uint64 { return b.OptRemoved },
				"Micro-ops removed by the frame optimizer, attributed to the loop-depth bucket live when the frame finished optimizing."),
			bucketRow("replayd_reuse_evictions_total", func(b *reuse.BucketStat) uint64 { return b.Evictions },
				"Frame/trace-cache evictions while execution sat in each loop-depth bucket."),
			{name: "replayd_reuse_loop_trip_count", bounds: []float64{2, 4, 8, 16, 32, 64, 128, 256, 1024},
				help: "Estimated trip count of each heaviest-by-uops loop per reuse-experiment workload; bucket exemplars carry the trace ID of a recent contributing job.",
				add: overReuse(func(r *reuse.Report, add emit) {
					for i := range r.TopLoops {
						add(0, uint64(r.TopLoops[i].TripCount()))
					}
				})},
			{name: "replayd_reuse_loop_uops", bounds: []float64{100, 1000, 10_000, 100_000, 1_000_000, 10_000_000},
				help: "Retired micro-ops attributed to each heaviest loop per reuse-experiment workload; bucket exemplars carry the trace ID of a recent contributing job.",
				add: overReuse(func(r *reuse.Report, add emit) {
					for i := range r.TopLoops {
						add(0, r.TopLoops[i].UOps)
					}
				})},
		},
	},
	{
		// The guest-cycle profile also serves as gzipped pprof protobuf
		// (samples = cycles, labels = bin, locations = guest PCs under
		// synthetic loop frames) and as collapsed flame stacks.
		path: "/debug/profile", what: "cycle profile", experiment: api.ExpCycles,
		report: func(r *api.RunResponse) (any, bool) { return r.Cycles, r.Cycles != nil },
		formats: []reportFormat{
			{"pprof", "application/octet-stream", "guest.pb.gz", func(r *api.RunResponse) ([]byte, error) {
				return cycleprof.Profile(r.Cycles.Profiles())
			}},
			{"text", "text/plain; charset=utf-8", "", func(r *api.RunResponse) ([]byte, error) {
				return cycleprof.FlameText(r.Cycles.Profiles()), nil
			}},
		},
		metrics: []metricRow{
			{name: "replayd_cycleprof_jobs_total", add: countJob,
				help: "Cycles-experiment jobs whose profiles were folded into these aggregates."},
			{name: "replayd_fetch_cycles_total", label: "bin", values: binLabels,
				help: "Fetch cycles attributed by the guest-cycle profiler to each fetch bin across cycles-experiment runs; summed over bins this equals the measured cycle total of those runs (the conservation invariant).",
				add: overCycles(func(r *cycleprof.Report, add emit) {
					for b, v := range r.Bins {
						add(b, v)
					}
				})},
			{name: "replayd_cycleprof_loops_total", add: overCycles(func(r *cycleprof.Report, add emit) { add(0, uint64(len(r.Loops))) }),
				help: "Loop-joined hotspots across cycles-experiment runs."},
			{name: "replayd_cycleprof_loop_cycles_total",
				help: "Fetch cycles attributed inside detected loop bodies across cycles-experiment runs (inclusive rollups; nested loops overlap).",
				add: overCycles(func(r *cycleprof.Report, add emit) {
					for i := range r.Loops {
						add(0, r.Loops[i].Cycles)
					}
				})},
		},
	},
	{
		path: "/debug/diff", what: "diff report", experiment: api.ExpDiff,
		report: func(r *api.RunResponse) (any, bool) { return r.Diff, r.Diff != nil },
		metrics: []metricRow{
			{name: "replayd_diff_jobs_total", add: countJob,
				help: "Diff-experiment jobs whose comparison reports were folded into these aggregates."},
			{name: "replayd_diff_loops_compared_total", add: diffTotal((*sim.DiffReport).LoopsCompared),
				help: "Per-loop delta rows produced across diff-experiment jobs (union of both sides' loop partitions)."},
			{name: "replayd_diff_significant_regressions_total", add: diffTotal((*sim.DiffReport).SignificantRegressions),
				help: "Top-line metric deltas in the regressing direction across diff-experiment jobs (one exact run per side, so every nonzero delta counts)."},
			{name: "replayd_diff_significant_improvements_total", add: diffTotal((*sim.DiffReport).SignificantImprovements),
				help: "Top-line metric deltas in the improving direction across diff-experiment jobs (one exact run per side, so every nonzero delta counts)."},
		},
	},
}

// reportMetrics holds every report kind's rows summed across settled
// jobs, in registry order, under one lock.
type reportMetrics struct {
	mu     sync.Mutex
	counts [][]uint64         // per row: one slot, or one per label value
	hists  []*stats.Histogram // per row: set on histogram rows only
}

func newReportMetrics() *reportMetrics {
	m := &reportMetrics{}
	for _, k := range reportKinds {
		for _, row := range k.metrics {
			var h *stats.Histogram
			if row.bounds != nil {
				h = stats.NewHistogram(row.name, row.help, row.bounds...)
			}
			m.hists = append(m.hists, h)
			m.counts = append(m.counts, make([]uint64, max(1, len(row.values))))
		}
	}
	return m
}

// fold adds a finished job's result to the rows of every kind whose
// report it carries.
func (m *reportMetrics) fold(res *api.RunResponse, traceID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, k := range reportKinds {
		_, ok := k.report(res)
		for _, row := range k.metrics {
			counts, h := m.counts[n], m.hists[n]
			n++
			if !ok {
				continue
			}
			row.add(res, func(i int, v uint64) {
				if h != nil {
					h.ObserveEx(v, traceID)
				} else {
					counts[i] += v
				}
			})
		}
	}
}

// render writes every row's family in registry order. The counters are
// copied under the lock so a slow scrape never blocks a settling job;
// histograms are atomic and snapshot on their own.
func (m *reportMetrics) render(p *stats.Prom) {
	m.mu.Lock()
	counts := make([][]uint64, len(m.counts))
	for i := range m.counts {
		counts[i] = slices.Clone(m.counts[i])
	}
	m.mu.Unlock()
	n := 0
	for _, k := range reportKinds {
		for _, row := range k.metrics {
			switch c := counts[n]; {
			case row.bounds != nil:
				p.Histogram(m.hists[n].Snapshot())
			case row.label == "":
				p.Counter(row.name, row.help, float64(c[0]))
			default:
				samples := make([]stats.LabeledSample, len(c))
				for i := range c {
					samples[i] = stats.LabeledSample{Label: row.values[i], Value: float64(c[i])}
				}
				p.LabeledCounter(row.name, row.help, row.label, samples)
			}
			n++
		}
	}
}

// handleReport serves a finished job's report of kind k: JSON by
// default, or one of the kind's other formats.
func (s *Server) handleReport(k reportKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fail := func(status int, msg string) { writeJSON(w, status, map[string]string{"error": msg}) }
		id := r.URL.Query().Get("job")
		if id == "" {
			fail(http.StatusBadRequest, "missing job query parameter")
			return
		}
		var format *reportFormat
		want := "json"
		f := r.URL.Query().Get("format")
		for i := range k.formats {
			want += ", " + k.formats[i].name
			if k.formats[i].name == f {
				format = &k.formats[i]
			}
		}
		if format == nil && f != "" && f != "json" {
			fail(http.StatusBadRequest, "unknown format; want one of "+want)
			return
		}
		j, ok := s.lookup(id)
		if !ok {
			fail(http.StatusNotFound, "no such job")
			return
		}
		v := j.view()
		switch v.State {
		case api.StateQueued, api.StateRunning:
			fail(http.StatusConflict, "job has not finished; "+k.what+" not available yet")
			return
		}
		rep, ok := any(nil), false
		if v.Result != nil {
			rep, ok = k.report(v.Result)
		}
		if !ok {
			fail(http.StatusNotFound, "job has no "+k.what+"; submit it with experiment \""+k.experiment+"\"")
			return
		}
		if format == nil {
			writeJSON(w, http.StatusOK, rep)
			return
		}
		data, err := format.encode(v.Result)
		if err != nil {
			fail(http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", format.contentType)
		if format.filename != "" {
			w.Header().Set("Content-Disposition", `attachment; filename="`+format.filename+`"`)
		}
		w.Write(data)
	}
}
