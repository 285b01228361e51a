package server

import (
	"math"
	"net/http"
	"sync/atomic"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
)

// serviceMetrics are replayd's own counters; the /metrics endpoint
// combines them with the sim layer's cache counters and the aggregate
// pipeline statistics of every run this process executed.
type serviceMetrics struct {
	requests     atomic.Uint64 // submissions, coalesced ones included
	coalesced    atomic.Uint64 // submissions served by an in-flight job
	rejected     atomic.Uint64 // queue-full rejections
	jobsDone     atomic.Uint64
	jobsFailed   atomic.Uint64
	jobsCanceled atomic.Uint64
	busyWorkers  atomic.Int64
	// execEWMA holds the float64 bits of an exponentially weighted
	// moving average of successful job execution seconds; the queue-full
	// Retry-After hint is derived from it.
	execEWMA atomic.Uint64
}

// observeExec folds one completed execution into the moving average.
// The read-modify-write retries on contention, so concurrent workers
// never drop each other's updates.
func (m *serviceMetrics) observeExec(seconds float64) {
	const alpha = 0.3
	for {
		old := m.execEWMA.Load()
		prev := math.Float64frombits(old)
		next := seconds
		if prev > 0 {
			next = alpha*seconds + (1-alpha)*prev
		}
		if m.execEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// avgExecSeconds returns the current execution-time estimate (0 before
// any job completed).
func (m *serviceMetrics) avgExecSeconds() float64 {
	return math.Float64frombits(m.execEWMA.Load())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued := s.queuedJobs
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := stats.NewProm(w)

	p.Counter("replayd_requests_total", "Experiment submissions accepted for coalescing or queueing.", float64(s.met.requests.Load()))
	p.Counter("replayd_coalesced_hits_total", "Submissions attached to an already in-flight identical job.", float64(s.met.coalesced.Load()))
	p.Counter("replayd_rejected_total", "Submissions rejected because the job queue was full.", float64(s.met.rejected.Load()))
	p.Counter("replayd_jobs_done_total", "Jobs finished successfully.", float64(s.met.jobsDone.Load()))
	p.Counter("replayd_jobs_failed_total", "Jobs finished with an error.", float64(s.met.jobsFailed.Load()))
	p.Counter("replayd_jobs_canceled_total", "Jobs canceled before completion.", float64(s.met.jobsCanceled.Load()))
	p.Gauge("replayd_queue_depth", "Jobs accepted but not yet running.", float64(queued))
	p.Gauge("replayd_queue_capacity", "Bound on jobs accepted but not yet running.", float64(s.cfg.QueueDepth))
	p.Gauge("replayd_workers", "Size of the job worker pool.", float64(s.cfg.Workers))
	p.Gauge("replayd_workers_busy", "Workers currently executing a job.", float64(s.met.busyWorkers.Load()))

	// External-trace upload front end: traffic counters plus spool
	// occupancy (zero gauges when no spool is configured).
	p.Counter("replayd_xtrace_uploads_total", "External traces accepted by POST /v1/traces (deduplicated re-uploads included).", float64(s.xmet.uploads.Load()))
	p.Counter("replayd_xtrace_upload_bytes_total", "Canonical bytes of accepted external-trace uploads.", float64(s.xmet.uploadBytes.Load()))
	p.Counter("replayd_xtrace_decode_errors_total", "Uploads rejected by the trace decoder.", float64(s.xmet.decodeErrors.Load()))
	p.Counter("replayd_xtrace_rejected_oversize_total", "Uploads rejected for exceeding the body cap or spool budget.", float64(s.xmet.oversize.Load()))
	p.Counter("replayd_xtrace_runs_total", "Jobs executed against a spooled external trace.", float64(s.xmet.runs.Load()))
	var spoolEntries int
	var spoolBytes, spoolLimit int64
	var spoolEvictions uint64
	if s.spool != nil {
		spoolEntries, spoolBytes, spoolLimit, spoolEvictions = s.spool.Stats()
	}
	p.Gauge("replayd_xtrace_spool_entries", "External traces currently spooled.", float64(spoolEntries))
	p.Gauge("replayd_xtrace_spool_bytes", "Disk residency of the external-trace spool.", float64(spoolBytes))
	p.Gauge("replayd_xtrace_spool_byte_limit", "Byte budget of the external-trace spool.", float64(spoolLimit))
	p.Counter("replayd_xtrace_spool_evictions_total", "Spooled traces evicted by the byte budget.", float64(spoolEvictions))

	m := sim.SnapshotMetrics()
	p.Counter("replayd_sim_runs_executed_total", "Simulations executed to completion (memo misses).", float64(m.RunsExecuted))
	p.Counter("replayd_sim_memo_hits_total", "Runs served from the run memo.", float64(m.MemoHits))
	p.Counter("replayd_sim_capture_builds_total", "Slot streams interpreted into shared captures.", float64(m.CaptureBuilds))
	p.Counter("replayd_sim_capture_hits_total", "Capture lookups served from a live recording.", float64(m.CaptureHits))
	p.Gauge("replayd_sim_memo_entries", "Run-memo occupancy.", float64(m.MemoEntries))
	p.Gauge("replayd_sim_memo_entry_limit", "Run-memo entry budget.", float64(m.MemoLimit))
	p.Gauge("replayd_sim_capture_entries", "Capture-cache occupancy.", float64(m.CaptureEntries))
	p.Gauge("replayd_sim_capture_bytes", "Approximate capture-cache residency in bytes.", float64(m.CaptureBytes))
	p.Gauge("replayd_sim_capture_entry_limit", "Capture-cache entry budget.", float64(m.CaptureEntryLimit))
	p.Gauge("replayd_sim_capture_byte_limit", "Capture-cache byte budget.", float64(m.CaptureByteLimit))

	// Aggregate pipeline statistics over every executed run, so one
	// scrape shows both how busy the service is and what the simulated
	// machines did.
	agg := &m.Aggregate
	p.Counter("replayd_pipeline_cycles_total", "Simulated cycles across executed runs.", float64(agg.Cycles))
	p.Counter("replayd_pipeline_x86_retired_total", "Retired x86 instructions across executed runs.", float64(agg.X86Retired))
	p.Counter("replayd_pipeline_uops_retired_total", "Retired micro-ops across executed runs.", float64(agg.UOpsRetired))
	p.Counter("replayd_pipeline_uops_baseline_total", "Baseline (unoptimized) micro-ops across executed runs.", float64(agg.UOpsBaseline))
	p.Counter("replayd_pipeline_loads_retired_total", "Retired loads across executed runs.", float64(agg.LoadsRetired))
	p.Counter("replayd_pipeline_loads_baseline_total", "Baseline loads across executed runs.", float64(agg.LoadsBaseline))
	p.Counter("replayd_pipeline_mispredicts_total", "Branch mispredictions across executed runs.", float64(agg.Mispredicts))
	p.Counter("replayd_pipeline_frame_fetches_total", "Frame-cache fetches across executed runs.", float64(agg.FrameFetches))
	p.Counter("replayd_pipeline_frame_commits_total", "Committed frames across executed runs.", float64(agg.FrameCommits))
	p.Counter("replayd_pipeline_frame_aborts_total", "Aborted frames across executed runs.", float64(agg.FrameAborts))
	p.Counter("replayd_pipeline_frames_constructed_total", "Frames constructed across executed runs.", float64(agg.FramesConstructed))
	p.Counter("replayd_pipeline_frames_optimized_total", "Frames optimized across executed runs.", float64(agg.FramesOptimized))

	// Fetch-cycle accounting (the paper's Figure 7/8 bins): every
	// simulated cycle lands in exactly one bin, so the per-bin samples
	// sum to replayd_pipeline_cycles_total.
	binSamples := make([]stats.LabeledSample, pipeline.NumBins)
	for i := range binSamples {
		binSamples[i] = stats.LabeledSample{Label: pipeline.Bin(i).String(), Value: float64(agg.Bins[i])}
	}
	p.LabeledCounter("replayd_pipeline_fetch_cycles_total",
		"Simulated fetch cycles per fetch bin across executed runs; bins sum to replayd_pipeline_cycles_total.",
		"bin", binSamples)

	// Per-report aggregates folded from finished reuse, cycles and diff
	// jobs: reuse depth buckets and loop-shape histograms (exemplars
	// point at contributing jobs' traces), guest-cycle bins, and diff
	// comparison counters.
	s.reports.render(p)

	// Frame-lifecycle histograms from the telemetry layer: every job
	// (traced or not) observes into the same histogram set. Memoized
	// runs execute nothing and so contribute no samples.
	for _, h := range s.hist.All() {
		p.Histogram(h.Snapshot())
	}

	// Since-boot request-latency histogram: its buckets carry OpenMetrics
	// exemplars stamping the trace ID of a recent request per bucket, so
	// a latency outlier on a dashboard links straight to its span trace
	// in /debug/traces.
	p.Histogram(s.httpHist.Snapshot())

	// Tail-sampler accounting for the span-trace store.
	tst := s.traces.Stats()
	p.Counter("replayd_traces_kept_total", "Completed traces retained by the tail sampler.", float64(tst.Kept))
	p.Counter("replayd_traces_kept_error_total", "Traces retained because a span errored.", float64(tst.KeptError))
	p.Counter("replayd_traces_kept_slow_total", "Traces retained because the root span met the slow threshold.", float64(tst.KeptSlow))
	p.Counter("replayd_traces_dropped_total", "Completed traces dropped by the probabilistic gate.", float64(tst.Dropped))
	p.Counter("replayd_traces_evicted_total", "Retained traces evicted by the store's capacity bound.", float64(tst.Evicted))
	p.Gauge("replayd_traces_stored", "Traces currently queryable at /debug/traces.", float64(s.traces.Len()))
	p.Gauge("replayd_traces_active", "Traces still assembling (a request or its job is in flight).", float64(s.tracer.ActiveTraces()))
	p.Gauge("replayd_job_exec_seconds_avg",
		"Moving average of successful job execution time.",
		s.met.avgExecSeconds())

	// Go runtime health: heap, GC pauses, goroutines, scheduler latency.
	p.Runtime("replayd", stats.ReadRuntime())
}
