package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/xtrace"
)

// The external-trace front end: POST /v1/traces uploads a trace (binary
// or NDJSON, auto-detected) into a bounded content-addressed disk spool,
// and a run request naming the trace (xtrace field, or ?trace=<id>)
// simulates it through the same queue, coalescing, memo, telemetry and
// dispatcher path as built-in workloads.

// xtraceMetrics counts the upload front end's traffic for /metrics.
type xtraceMetrics struct {
	uploads      atomic.Uint64 // accepted uploads, deduplicated re-uploads included
	uploadBytes  atomic.Uint64 // request body bytes of accepted uploads
	decodeErrors atomic.Uint64 // uploads rejected by the decoder (400)
	oversize     atomic.Uint64 // uploads rejected for size (413), spool budget included
	runs         atomic.Uint64 // jobs executed against a spooled trace
}

// uploadLimits derives the decode bounds for one upload from the
// server's configured body cap.
func (s *Server) uploadLimits() xtrace.Limits {
	// Records are >= MinRecordBytes encoded bytes each, so the byte cap
	// bounds the count a stream can actually carry; capping MaxRecords
	// the same way keeps a header that merely declares a huge count from
	// commanding a matching allocation.
	maxRecords := uint64(s.cfg.MaxUploadBytes) / xtrace.MinRecordBytes
	if maxRecords == 0 {
		maxRecords = 1
	}
	return xtrace.Limits{
		MaxBytes:     s.cfg.MaxUploadBytes,
		MaxRecords:   maxRecords,
		MaxCodeBytes: 16 << 20,
	}
}

// traceInfo is the wire view of one spooled trace.
type traceInfo struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Arch      string `json:"arch,omitempty"`
	Records   uint64 `json:"records"`
	Insts     uint32 `json:"insts,omitempty"`
	HasCode   bool   `json:"has_code,omitempty"`
	Bytes     int64  `json:"bytes"`
	Duplicate bool   `json:"duplicate,omitempty"`
}

// infoOf describes the trace with content ID id, header h (whose UOps
// is the record count, as after Decode) and canonical size.
func infoOf(id string, h xtrace.Header, size int64) traceInfo {
	return traceInfo{ID: id, Name: h.Name, Arch: h.Arch, Records: h.UOps,
		Insts: h.Insts, HasCode: h.HasCode(), Bytes: size}
}

// handleTraceUpload ingests one external trace. Failures are structured
// and typed: 400 {"kind":"decode"} for malformed streams, 413
// {"kind":"oversize"} for bodies over the upload cap or decode limits,
// 413 {"kind":"spool_budget"} when the trace cannot fit the spool even
// after eviction, 503 {"kind":"disabled"} when no spool is configured.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.spool == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "trace spool disabled (start replayd with -spool-dir)",
			"kind":  "disabled",
		})
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	t, err := xtrace.Decode(body, s.uploadLimits())
	if err != nil {
		s.rejectUpload(w, r, err)
		return
	}
	// A trace the spool can never hold is refused first, so it charges
	// no adaptation to the capture cache. Then adapt before spooling, so
	// a trace that decodes but cannot be simulated (EIP outside its code
	// image, mid-instruction EIP change) fails the upload with a 400
	// instead of failing every later job. The capture cache keeps the
	// result, so the jobs that follow, and a re-post of the same trace,
	// adapt nothing.
	c := xtrace.Canonicalize(t)
	if err := s.spool.Fits(c); err != nil {
		s.rejectUpload(w, r, err)
		return
	}
	if _, err := sim.CachedExternal(c.ID(), func() (*sim.ExternalRun, error) { return adaptedRun(c.ID(), t) }); err != nil {
		s.rejectUpload(w, r, err)
		return
	}
	dup, err := s.spool.Put(c)
	if err != nil {
		s.rejectUpload(w, r, err)
		return
	}
	info := infoOf(c.ID(), t.Header, c.Size())
	info.Duplicate = dup
	s.xmet.uploads.Add(1)
	s.xmet.uploadBytes.Add(uint64(info.Bytes))
	s.log.Info("trace uploaded",
		"trace", info.ID,
		"name", info.Name,
		"arch", info.Arch,
		"records", info.Records,
		"bytes", info.Bytes,
		"duplicate", dup)
	writeJSON(w, http.StatusCreated, info)
}

// rejectUpload maps an ingestion failure to its status and structured
// body, logging at Warn with job-style fields so rejected uploads are
// greppable next to job lifecycle lines.
func (s *Server) rejectUpload(w http.ResponseWriter, r *http.Request, err error) {
	status, kind := http.StatusBadRequest, "decode"
	var limit int64
	var maxBytesErr *http.MaxBytesError
	switch {
	case errors.Is(err, xtrace.ErrSpoolBudget):
		status, kind = http.StatusRequestEntityTooLarge, "spool_budget"
		_, _, limit, _ = s.spool.Stats()
		s.xmet.oversize.Add(1)
	case errors.As(err, &maxBytesErr), errors.Is(err, xtrace.ErrLimit):
		status, kind = http.StatusRequestEntityTooLarge, "oversize"
		limit = s.cfg.MaxUploadBytes
		s.xmet.oversize.Add(1)
	default:
		s.xmet.decodeErrors.Add(1)
	}
	s.log.Warn("trace upload rejected",
		"kind", kind,
		"status", status,
		"limit_bytes", limit,
		"content_length", r.ContentLength,
		"error", err.Error())
	body := map[string]any{"error": err.Error(), "kind": kind}
	if limit > 0 {
		body["limit_bytes"] = limit
	}
	writeJSON(w, status, body)
}

// handleTraceList lists the spooled traces (LRU first) plus occupancy.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.spool == nil {
		writeJSON(w, http.StatusOK, map[string]any{"traces": []string{}, "enabled": false})
		return
	}
	entries, bytes, maxBytes, _ := s.spool.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"traces":     s.spool.List(),
		"enabled":    true,
		"entries":    entries,
		"bytes":      bytes,
		"byte_limit": maxBytes,
	})
}

// handleTraceInfo describes one spooled trace.
func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.spool == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "trace spool disabled", "kind": "disabled"})
		return
	}
	h, size, err := s.spool.Info(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, infoOf(id, h, size))
}

// reqTraceIDs lists every spooled-trace ID a request names: the main
// xtrace field plus a diff variant's trace. IDs repeat if both sides
// name the same trace; the pin refcount balances either way.
func reqTraceIDs(req api.RunRequest) []string {
	var ids []string
	if req.XTrace != "" {
		ids = append(ids, req.XTrace)
	}
	if req.Diff != nil && req.Diff.XTrace != "" {
		ids = append(ids, req.Diff.XTrace)
	}
	return ids
}

// checkXTrace validates an xtrace-carrying submission against the spool
// at submit time, so a bad trace ID fails with 404 instead of a failed
// job. Each present trace is pinned against eviction — a queued job
// must still find it when a worker picks the job up, however many
// uploads churn the spool in between. Every successful check must be
// balanced by one unpinXTrace (on coalesce, rejection, or job
// settlement).
func (s *Server) checkXTrace(req api.RunRequest) error {
	ids := reqTraceIDs(req)
	if len(ids) == 0 {
		return nil
	}
	if s.spool == nil {
		return &errSubmit{status: http.StatusServiceUnavailable,
			msg: "trace spool disabled (start replayd with -spool-dir)"}
	}
	for i, id := range ids {
		if !s.spool.Pin(id) {
			for _, held := range ids[:i] {
				s.spool.Unpin(held)
			}
			return &errSubmit{status: http.StatusNotFound,
				msg: fmt.Sprintf("no spooled trace %q (upload it to /v1/traces first)", id)}
		}
	}
	return nil
}

// unpinXTrace releases the eviction holds checkXTrace took for req.
func (s *Server) unpinXTrace(req api.RunRequest) {
	if s.spool == nil {
		return
	}
	for _, id := range reqTraceIDs(req) {
		s.spool.Unpin(id)
	}
}

// externalRun returns one spooled trace's adapted run from the capture
// cache, loading and adapting it again after an eviction or a restart:
// the dispatcher's resolver for the xtrace IDs a request names.
func (s *Server) externalRun(id string) (*sim.ExternalRun, error) {
	return sim.CachedExternal(id, func() (*sim.ExternalRun, error) {
		t, err := s.spool.Get(id)
		if err != nil {
			return nil, err
		}
		return adaptedRun(id, t)
	})
}

// adaptedRun adapts trace t, whose content ID is id, into its run.
func adaptedRun(id string, t *xtrace.Trace) (*sim.ExternalRun, error) {
	rec, err := t.Recording()
	if err != nil {
		return nil, err
	}
	name := t.Header.Name
	if name == "" {
		name = "xtrace-" + id[:12]
	}
	return &sim.ExternalRun{Name: name, Fingerprint: id, Recording: rec, Insts: int(t.Header.Insts)}, nil
}
