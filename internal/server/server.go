// Package server implements replayd: the paper's experiment harness
// exposed as a long-lived HTTP JSON service. Requests are canonicalized
// to a coalescing key (api.RunRequest.Key), deduplicated singleflight-
// style against in-flight work, queued into a bounded job queue, and
// executed by a fixed worker pool; the process-wide slot-stream capture
// and run-memo layers in internal/sim then make even non-concurrent
// repeats cheap. Jobs stream progress events, cancel when their last
// interested client disconnects, and drain on graceful shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// keepFinished bounds how many finished jobs stay queryable.
const keepFinished = 256

// Runner executes one canonicalized request, reporting progress through
// events. The default runs it through the api dispatcher, resolving
// uploaded traces from the spool; tests substitute instrumented
// wrappers.
type Runner func(ctx context.Context, req api.RunRequest, progress func(api.Event)) (*api.RunResponse, error)

// Config sizes the service.
type Config struct {
	// Workers is the number of jobs executed concurrently (each job
	// itself fans out across CPUs through sim's run scheduler).
	// Default 2.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; submissions
	// beyond it are rejected with 503. Default 64.
	QueueDepth int
	// MaxInsts caps the per-trace instruction budget a request may ask
	// for (0 = no cap).
	MaxInsts int
	// TraceEvents bounds the per-job trace ring for requests with
	// Trace set; the ring keeps the newest events. Default 65536.
	TraceEvents int
	// Runner overrides the execution backend (tests). Default: the api
	// dispatcher.
	Runner Runner
	// Logger receives the daemon's structured log records: every job
	// lifecycle line carries the job ID and coalescing key, so a job can
	// be followed across submission, queueing, execution, and outcome.
	// Default: discard.
	Logger *slog.Logger
	// TraceStore bounds how many completed request traces stay
	// queryable at /debug/traces. Default 256.
	TraceStore int
	// TraceSlow is the tail sampler's slow-trace cutoff: a trace whose
	// root span meets it is always retained. Default 1s.
	TraceSlow time.Duration
	// TraceSample is the probability a trace that is neither errored
	// nor slow is retained (0 = keep all; the bounded store makes
	// keep-all safe at replayd's request rates; negative keeps only
	// error and slow traces).
	TraceSample float64
	// SpoolDir roots the external-trace spool (POST /v1/traces). Empty
	// disables the upload front end: uploads and xtrace runs return 503.
	SpoolDir string
	// SpoolBytes bounds the spool's disk residency; least recently used
	// traces are evicted past it. Default 256 MiB.
	SpoolBytes int64
	// MaxUploadBytes caps one upload's request body (and decode
	// consumption); larger uploads are rejected with 413. Default 64 MiB.
	MaxUploadBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TraceEvents <= 0 {
		c.TraceEvents = 1 << 16
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SpoolBytes <= 0 {
		c.SpoolBytes = 256 << 20
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	return c
}

// job is one unit of queued/running/finished work plus everything the
// HTTP layer observes about it.
type job struct {
	id  string
	key string
	req api.RunRequest
	// log is the job-scoped logger: every line carries the job ID and
	// coalescing key, so one job's lifecycle greps out of mixed output.
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc

	// span is the job's span in the submitting request's trace; qspan
	// is its queue-wait child. Both are nil-safe no-ops when the
	// request was untraced. traceID is span's trace in hex, stamped on
	// the wire view, log lines, and histogram exemplars.
	span    *tracing.Span
	qspan   *tracing.Span
	traceID string

	// waiters counts clients whose disconnect should cancel the job;
	// detached marks jobs somebody wants regardless (async submissions).
	// Both are guarded by the server mutex.
	waiters  int
	detached bool

	mu        sync.Mutex
	events    []api.Event
	notify    chan struct{}   // closed and replaced on every append
	ring      *telemetry.Ring // per-job event ring, when req.Trace
	state     string
	err       error
	result    *api.RunResponse
	queuedAt  time.Time
	startedAt time.Time
	doneAt    time.Time
	done      chan struct{}
}

func (j *job) appendEvent(e api.Event) {
	j.mu.Lock()
	e.Seq = len(j.events)
	e.JobID = j.id
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// eventsSince returns the events at index >= from and a channel that
// closes when more arrive.
func (j *job) eventsSince(from int) ([]api.Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []api.Event
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.notify
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	if state == api.StateRunning {
		j.startedAt = time.Now()
	}
	j.mu.Unlock()
	j.appendEvent(api.Event{State: state})
}

func (j *job) finish(res *api.RunResponse, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = api.StateDone
		j.result = res
	case errors.Is(err, context.Canceled):
		j.state = api.StateCanceled
		j.err = err
	default:
		j.state = api.StateFailed
		j.err = err
	}
	j.doneAt = time.Now()
	state := j.state
	j.mu.Unlock()
	j.appendEvent(api.Event{State: state})
	close(j.done)
}

// view renders the job's wire form.
func (j *job) view() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := api.Job{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		TraceID:   j.traceID,
		Result:    j.result,
		QueuedAt:  j.queuedAt,
		StartedAt: j.startedAt,
		DoneAt:    j.doneAt,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// Server is the replayd service core, independent of the listening
// socket: it exposes an http.Handler and a drain-style Shutdown.
type Server struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu         sync.Mutex
	jobs       map[string]*job
	inflight   map[string]*job // coalescing index: queued or running jobs by key
	finished   []string        // finish order, for keepFinished eviction
	nextID     int
	draining   bool
	queuedJobs int // accepted but not yet started

	queue    chan *job
	workerWG sync.WaitGroup

	mux *http.ServeMux
	met serviceMetrics
	log *slog.Logger

	// hist backs the /metrics histograms; histCol is the process-wide
	// collector feeding it, which every job without a span trace runs
	// under (histogram collection keeps the run memo, so this costs
	// nothing on memo hits).
	hist    *telemetry.HistogramSet
	histCol *telemetry.Histograms

	// tracer roots one span trace per API request; completed traces
	// land in traces behind its tail sampler. httpHist is the request
	// latency histogram whose buckets carry trace-ID exemplars.
	tracer   *tracing.Tracer
	traces   *tracing.Store
	httpHist *stats.LatencyHistogram

	// spool holds uploaded external traces (nil when SpoolDir is empty:
	// the upload front end is disabled); xmet counts its traffic.
	spool *xtrace.Spool
	xmet  xtraceMetrics

	// reports sums finished jobs' reports into each report kind's
	// metric rows.
	reports *reportMetrics
}

// New starts a server core: the worker pool is live on return.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*job{},
		inflight:   map[string]*job{},
		queue:      make(chan *job, cfg.QueueDepth),
		mux:        http.NewServeMux(),
		hist:       telemetry.NewHistogramSet(),
		log:        cfg.Logger,
		reports:    newReportMetrics(),
	}
	s.histCol = telemetry.NewHistograms(s.hist, "")
	s.traces = tracing.NewStore(tracing.StoreConfig{
		Capacity:      cfg.TraceStore,
		SlowThreshold: cfg.TraceSlow,
		SampleRate:    cfg.TraceSample,
	})
	s.tracer = tracing.NewTracer(s.traces)
	s.httpHist = stats.NewLatencyHistogram("replayd_http_request_seconds",
		"API (/v1/*) request latency since boot; bucket exemplars carry the trace ID of a recent request.",
		stats.DefaultLatencyBounds...)
	if cfg.SpoolDir != "" {
		spool, err := xtrace.OpenSpool(cfg.SpoolDir, cfg.SpoolBytes)
		if err != nil {
			// The rest of the service works without the upload front end;
			// uploads and xtrace runs answer 503 until a restart fixes it.
			s.log.Warn("trace spool unavailable", "dir", cfg.SpoolDir, "error", err.Error())
		} else {
			s.spool = spool
		}
	}
	if s.cfg.Runner == nil {
		s.cfg.Runner = s.run
	}
	s.routes()
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP surface, wrapped so every API
// request opens the root span of a trace (continuing the client's W3C
// traceparent when one was sent), is timed into the latency histogram,
// and is access-logged at Debug (job lifecycle lines log at Info from
// the queue and workers).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		isAPI := strings.HasPrefix(r.URL.Path, "/v1/")
		var span *tracing.Span
		if isAPI {
			var tp *tracing.Traceparent
			if hdr := r.Header.Get(tracing.TraceparentHeader); hdr != "" {
				if p, err := tracing.ParseTraceparent(hdr); err == nil {
					tp = &p
				}
			}
			var ctx context.Context
			ctx, span = s.tracer.StartRoot(r.Context(), r.Method+" "+r.URL.Path, tp)
			if span != nil {
				r = r.WithContext(ctx)
				// Expose the trace ID even to clients that sent no
				// traceparent, so any request can be followed into
				// /debug/traces.
				w.Header().Set("X-Trace-Id", span.TraceID().String())
			}
		}
		s.mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		var traceID string
		if span != nil {
			traceID = span.TraceID().String()
			span.SetAttr("status", sw.Status())
			if sw.Status() >= http.StatusInternalServerError {
				span.SetError(fmt.Errorf("http %d", sw.Status()))
			}
			span.End()
		}
		if isAPI {
			// Only the API surface feeds the latency histogram: /metrics
			// scrapes and health probes would drown real request latencies.
			s.httpHist.ObserveEx(elapsed, traceID)
		}
		s.log.Debug("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.Status(),
			"trace_id", traceID,
			"duration_ms", float64(elapsed)/float64(time.Millisecond))
	})
}

// statusWriter captures the response status for the access log while
// forwarding Flush so NDJSON streaming keeps working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the written status, defaulting to 200 for handlers
// that never call WriteHeader explicitly.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/diff", s.handleDiff)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceInfo)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	for _, k := range reportKinds {
		s.mux.HandleFunc("GET "+k.path, s.handleReport(k))
	}
}

// errSubmit carries an HTTP status for submission failures, plus an
// optional Retry-After hint (seconds) for load-shedding rejections.
type errSubmit struct {
	status     int
	msg        string
	retryAfter int
}

func (e *errSubmit) Error() string { return e.msg }

// submit canonicalizes, validates and enqueues a request — or attaches
// to an in-flight job with the same key (the coalescing path). detached
// submissions keep the job alive with no waiting client; non-detached
// callers must pair with releaseWaiter. When ctx carries the request's
// span, a fresh job opens its own child spans (job, queue wait) there,
// and a coalescing hit links the request's trace to the leader job's.
func (s *Server) submit(ctx context.Context, req api.RunRequest, detached bool) (*job, bool, error) {
	if err := req.Validate(); err != nil {
		return nil, false, &errSubmit{status: http.StatusBadRequest, msg: err.Error()}
	}
	c := req.Canonical()
	if err := s.checkXTrace(c); err != nil {
		return nil, false, err
	}
	if err := s.checkBudget(c); err != nil {
		s.unpinXTrace(c)
		return nil, false, err
	}
	key := c.Key()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.requests.Add(1)

	if j, ok := s.inflight[key]; ok {
		// The leader job holds its own pin on the spooled trace; this
		// submission's hold is redundant.
		s.unpinXTrace(c)
		s.met.coalesced.Add(1)
		if detached {
			j.detached = true
		} else {
			j.waiters++
		}
		// The follower's trace doesn't contain the leader's spans (they
		// belong to the leader's trace); a link on the request span
		// connects the two so the flame view points at the job's trace.
		if reqSpan := tracing.FromContext(ctx); reqSpan != nil {
			reqSpan.SetAttr("coalesced_job", j.id)
			if j.span != nil {
				reqSpan.AddLink(j.span.TraceID(), j.span.SpanID())
			}
		}
		j.log.Info("request coalesced onto in-flight job")
		return j, true, nil
	}
	if s.draining {
		s.unpinXTrace(c)
		return nil, false, &errSubmit{status: http.StatusServiceUnavailable, msg: "server is draining"}
	}

	s.nextID++
	jctx, jcancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.nextID),
		key:      key,
		req:      c,
		ctx:      jctx,
		cancel:   jcancel,
		detached: detached,
		state:    api.StateQueued,
		notify:   make(chan struct{}),
		queuedAt: time.Now(),
		done:     make(chan struct{}),
	}
	// The job's spans parent under the submitting request's root but
	// ride the job's own context: the job (and so its trace) may outlive
	// the HTTP request that created it. The queue-wait span opens now
	// and ends when a worker picks the job up.
	if reqSpan := tracing.FromContext(ctx); reqSpan != nil {
		jctx, j.span = tracing.Start(tracing.ContextWithSpan(jctx, reqSpan), "job")
		j.span.SetAttr("job_id", j.id)
		j.span.SetAttr("experiment", c.Experiment)
		_, j.qspan = tracing.Start(jctx, "queue.wait")
		if j.span != nil {
			j.traceID = j.span.TraceID().String()
		}
		j.ctx = jctx
	}
	j.log = s.log.With("job_id", j.id, "key", j.key)
	if j.traceID != "" {
		j.log = j.log.With("trace_id", j.traceID)
	}
	if !detached {
		j.waiters = 1
	}
	select {
	case s.queue <- j:
	default:
		s.unpinXTrace(c)
		jcancel()
		j.qspan.End()
		j.span.SetError(errors.New("job queue full"))
		j.span.End()
		s.met.rejected.Add(1)
		retry := s.retryAfterLocked()
		s.log.Warn("job queue full, rejecting request",
			"key", key,
			"experiment", c.Experiment,
			"queue_depth", s.queuedJobs,
			"queue_capacity", s.cfg.QueueDepth,
			"retry_after_s", retry)
		return nil, false, &errSubmit{
			status:     http.StatusServiceUnavailable,
			msg:        fmt.Sprintf("job queue full (%d queued)", s.cfg.QueueDepth),
			retryAfter: retry,
		}
	}
	s.jobs[j.id] = j
	s.inflight[key] = j
	s.queuedJobs++
	j.log.Info("job accepted",
		"experiment", c.Experiment,
		"detached", detached,
		"queue_depth", s.queuedJobs)
	j.appendEvent(api.Event{State: api.StateQueued})
	return j, false, nil
}

// retryAfterLocked estimates (under s.mu) how many seconds until queue
// space plausibly frees: the queued backlog divided across the worker
// pool, scaled by the recent average job execution time. Clamped to
// [1, 300] so the header stays a sane hint even on a cold or badly
// backed-up server.
func (s *Server) retryAfterLocked() int {
	avg := s.met.avgExecSeconds()
	if avg <= 0 {
		avg = 1
	}
	est := avg * float64(s.queuedJobs+1) / float64(s.cfg.Workers)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// releaseWaiter drops one waiting client; when the last one leaves a
// job nobody submitted asynchronously, the job is canceled so its
// simulations stop burning cycles for an absent audience.
func (s *Server) releaseWaiter(j *job) {
	s.mu.Lock()
	j.waiters--
	cancel := j.waiters <= 0 && !j.detached
	s.mu.Unlock()
	if cancel {
		select {
		case <-j.done:
			// Finished in the meantime; nothing to stop.
		default:
			j.cancel()
		}
	}
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

func (s *Server) execute(j *job) {
	s.mu.Lock()
	s.queuedJobs--
	s.mu.Unlock()

	if err := j.ctx.Err(); err != nil {
		s.settle(j, nil, err)
		return
	}
	j.qspan.End()
	s.met.busyWorkers.Add(1)
	j.setState(api.StateRunning)
	j.log.Info("job started",
		"queue_wait_ms", float64(time.Since(j.queuedAt))/float64(time.Millisecond),
		"trace", j.req.Trace)
	// Every job runs under a histogram collector so its frame-lifecycle
	// samples feed /metrics. A span-carrying job gets a private one over
	// the same set, stamping the request's trace ID as bucket exemplars —
	// histogram-only collection keeps the run memo. Traced jobs add an
	// event ring (labeled with the coalescing key, tagged with the job ID
	// so ring events join log lines); it stays on the job so /debug/trace
	// can serve it during and after the run.
	cols := []sim.Collector{s.histCol}
	if j.traceID != "" {
		cols[0] = telemetry.NewHistograms(s.hist, j.traceID)
	}
	if j.req.Trace {
		ring := telemetry.NewRing(s.cfg.TraceEvents, j.key, j.id)
		j.mu.Lock()
		j.ring = ring
		j.mu.Unlock()
		cols = append(cols, ring)
	}
	ctx := withCollectors(j.ctx, cols)
	ctx, espan := tracing.Start(ctx, "job.exec")
	res, err := s.cfg.Runner(ctx, j.req, j.appendEvent)
	espan.SetError(err)
	espan.End()
	if err == nil && len(reqTraceIDs(j.req)) > 0 {
		s.xmet.runs.Add(1)
	}
	s.met.busyWorkers.Add(-1)
	s.settle(j, res, err)
}

// run is the default Runner: the api dispatcher under the job's
// collectors, resolving uploaded traces from the spool.
func (s *Server) run(ctx context.Context, req api.RunRequest, progress func(api.Event)) (*api.RunResponse, error) {
	return api.Run(ctx, req, progress, sim.Options{Probes: collectorsFrom(ctx)}, s.externalRun)
}

type collectorsKey struct{}

// withCollectors attaches a job's collectors to ctx, handing them
// through the Runner boundary without changing its signature.
func withCollectors(ctx context.Context, cols []sim.Collector) context.Context {
	return context.WithValue(ctx, collectorsKey{}, cols)
}

// collectorsFrom returns the collectors withCollectors attached, or nil.
func collectorsFrom(ctx context.Context) []sim.Collector {
	cols, _ := ctx.Value(collectorsKey{}).([]sim.Collector)
	return cols
}

// checkBudget enforces the MaxInsts cap on the per-trace budget the
// request will actually run: its insts, or when that is unset the
// defaults of the workloads and uploaded traces it resolves to.
func (s *Server) checkBudget(req api.RunRequest) error {
	if s.cfg.MaxInsts <= 0 {
		return nil
	}
	budget, err := api.Budget(req, s.externalRun)
	if err != nil {
		return &errSubmit{status: http.StatusBadRequest, msg: err.Error()}
	}
	if budget > s.cfg.MaxInsts {
		return &errSubmit{status: http.StatusBadRequest,
			msg: fmt.Sprintf("per-trace budget %d exceeds the server cap %d (set insts)", budget, s.cfg.MaxInsts)}
	}
	return nil
}

// settle finishes the job, removes it from the coalescing index and
// evicts old finished jobs beyond the retention bound.
func (s *Server) settle(j *job, res *api.RunResponse, err error) {
	s.unpinXTrace(j.req)
	// Fold the report metrics and count the outcome before finishing: a
	// client that sees the job done must find it counted in /metrics.
	if err == nil && res != nil {
		s.reports.fold(res, j.traceID)
	}
	switch {
	case err == nil:
		s.met.jobsDone.Add(1)
	case errors.Is(err, context.Canceled):
		s.met.jobsCanceled.Add(1)
	default:
		s.met.jobsFailed.Add(1)
	}
	j.finish(res, err)
	j.cancel()

	j.mu.Lock()
	state := j.state
	queueWait := j.startedAt.Sub(j.queuedAt)
	var execDur time.Duration
	if !j.startedAt.IsZero() {
		execDur = j.doneAt.Sub(j.startedAt)
	} else {
		queueWait = j.doneAt.Sub(j.queuedAt)
	}
	j.mu.Unlock()
	attrs := []any{
		"outcome", state,
		"queue_wait_ms", float64(queueWait) / float64(time.Millisecond),
		"exec_ms", float64(execDur) / float64(time.Millisecond),
	}
	if err != nil {
		j.log.Warn("job finished", append(attrs, "error", err.Error())...)
	} else {
		j.log.Info("job finished", attrs...)
	}
	if err == nil && execDur > 0 {
		s.met.observeExec(execDur.Seconds())
	}
	// Close out the job's spans (idempotent: the queue-wait span already
	// ended if a worker picked the job up). An errored or canceled job
	// makes its trace an error trace, which the tail sampler always
	// keeps.
	j.qspan.End()
	j.span.SetAttr("outcome", state)
	j.span.SetError(err)
	j.span.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.finished = append(s.finished, j.id)
	for len(s.finished) > keepFinished {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Shutdown drains the service: new submissions are rejected, queued and
// running jobs are given until ctx expires to finish, then everything
// left is canceled. It returns nil on a clean drain and ctx's error
// otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}

	drained := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	var se *errSubmit
	if errors.As(err, &se) {
		if se.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
		}
		writeJSON(w, se.status, map[string]string{"error": se.msg})
		return
	}
	writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

func decodeRequest(r *http.Request) (api.RunRequest, error) {
	var req api.RunRequest
	qtrace := r.URL.Query().Get("trace")
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// ?trace=<id> allows a bodyless submission: the trace ID plus
		// defaults (cell experiment, RPO) fully describe the run.
		if !(qtrace != "" && errors.Is(err, io.EOF)) {
			return req, &errSubmit{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()}
		}
	}
	if qtrace != "" {
		req.XTrace = qtrace
	}
	return req, nil
}

// handleSubmit enqueues asynchronously: the job runs to completion even
// if no client ever polls it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	j, coalesced, err := s.submit(r.Context(), req, true)
	if err != nil {
		writeErr(w, err)
		return
	}
	v := j.view()
	v.Coalesced = coalesced
	writeJSON(w, http.StatusAccepted, v)
}

// handleRun is the synchronous path: submit (or coalesce), then wait
// for the result. A client disconnect releases its interest; the last
// one out cancels the job's simulations.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.runSync(w, r, req)
}

// runSync submits req (or coalesces it) for a waiting client and
// writes the finished job, 500 when it failed and 409 when canceled. A
// client disconnect releases its interest instead.
func (s *Server) runSync(w http.ResponseWriter, r *http.Request, req api.RunRequest) {
	j, coalesced, err := s.submit(r.Context(), req, false)
	if err != nil {
		writeErr(w, err)
		return
	}
	select {
	case <-j.done:
		s.releaseWaiter(j)
		v := j.view()
		v.Coalesced = coalesced
		status := http.StatusOK
		if v.State == api.StateFailed {
			status = http.StatusInternalServerError
		} else if v.State == api.StateCanceled {
			status = http.StatusConflict
		}
		writeJSON(w, status, v)
	case <-r.Context().Done():
		s.releaseWaiter(j)
		// The client is gone; nothing useful to write.
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	views := make([]api.Job, 0, len(jobs))
	for _, j := range jobs {
		v := j.view()
		v.Result = nil // keep listings light
		views = append(views, v)
	}
	// Deterministic order: by ID (zero-padded, so lexicographic works).
	for i := 1; i < len(views); i++ {
		for k := i; k > 0 && views[k].ID < views[k-1].ID; k-- {
			views[k], views[k-1] = views[k-1], views[k]
		}
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleEvents streams the job's progress as newline-delimited JSON
// until the job finishes or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		evs, more := j.eventsSince(next)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		next += len(evs)
		if fl != nil {
			fl.Flush()
		}
		select {
		case <-j.done:
			// Drain anything appended between the last read and done.
			evs, _ := j.eventsSince(next)
			for _, e := range evs {
				if err := enc.Encode(e); err != nil {
					return
				}
			}
			if fl != nil {
				fl.Flush()
			}
			return
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves a traced job's event ring as Chrome trace_event
// JSON (load into chrome://tracing or Perfetto). The snapshot is safe
// to take mid-run; a job submitted without "trace": true has no ring
// and 404s.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("job")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing job query parameter"})
		return
	}
	j, ok := s.lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	j.mu.Lock()
	ring := j.ring
	j.mu.Unlock()
	if ring == nil {
		if j.req.Trace {
			// Requested but not started: the collector appears with the run.
			writeJSON(w, http.StatusConflict,
				map[string]string{"error": "job has not started; trace not available yet"})
			return
		}
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": "job has no trace; submit it with \"trace\": true"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = ring.WriteTrace(w)
}

// handleTraces lists the span traces retained by the tail sampler,
// newest first. ?limit=N bounds the listing.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad limit: " + v})
			return
		}
		limit = n
	}
	list := s.traces.List(limit)
	if list == nil {
		list = []tracing.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, list)
}

// handleTraceByID serves one stored trace: raw span JSON by default,
// Chrome trace_event JSON with ?format=chrome (load into Perfetto, or
// feed to cmd/tracecheck), the flame-style text tree with ?format=text
// (what replayctl -trace renders).
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := tracing.ParseTraceID(id); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	tr := s.traces.Get(id)
	if tr == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such trace (evicted, sampled out, or never seen)"})
		return
	}
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		writeJSON(w, http.StatusOK, tr)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteChrome(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = tr.WriteText(w)
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unknown format " + f + " (want json, chrome or text)"})
	}
}

// workloadInfo is the /v1/workloads row.
type workloadInfo struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	Traces int    `json:"traces"`
	Insts  int    `json:"insts"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	out := make([]workloadInfo, 0, len(workload.Profiles))
	for _, p := range workload.Profiles {
		out = append(out, workloadInfo{Name: p.Name, Class: p.Class, Traces: p.Traces, Insts: p.XInsts})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
