package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// StoredTrace is one completed, sampled-in trace.
type StoredTrace struct {
	TraceID string `json:"trace_id"`
	// Root is the root span's name ("POST /v1/run" etc).
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Error    bool          `json:"error"`
	// Reason records why the tail sampler kept this trace:
	// "error", "slow", or "sampled".
	Reason string     `json:"reason"`
	Spans  []SpanData `json:"spans"`
}

// TraceSummary is the list-view form served by GET /debug/traces.
type TraceSummary struct {
	TraceID  string        `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    int           `json:"spans"`
	Error    bool          `json:"error"`
	Reason   string        `json:"reason"`
}

// StoreConfig sizes the trace store and tunes its tail sampler.
type StoreConfig struct {
	// Capacity bounds retained traces; oldest are evicted first.
	// Default 256.
	Capacity int
	// SlowThreshold marks a trace "slow" (always retained) when its
	// root span's duration meets it. Default 1s.
	SlowThreshold time.Duration
	// SampleRate is the probability a trace that is neither errored
	// nor slow is retained. Default 1.0 (keep all — the bounded
	// capacity makes keep-all safe; lower it on high-QPS deployments).
	SampleRate float64
	// Rand overrides the sampling source, for tests. Defaults to the
	// global math/rand source.
	Rand func() float64
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = time.Second
	}
	if c.SampleRate == 0 {
		c.SampleRate = 1.0
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

// StoreStats counts the tail sampler's decisions.
type StoreStats struct {
	Kept       uint64 `json:"kept"`
	KeptError  uint64 `json:"kept_error"`
	KeptSlow   uint64 `json:"kept_slow"`
	KeptSample uint64 `json:"kept_sampled"`
	Dropped    uint64 `json:"dropped"`
	Evicted    uint64 `json:"evicted"`
}

// Store holds completed traces with tail-based sampling: error and
// slow-tail traces are always kept, the rest pass a probabilistic
// gate, and retention is FIFO-bounded. Safe for concurrent use.
type Store struct {
	cfg StoreConfig

	mu    sync.Mutex
	order []string // trace IDs, oldest first
	byID  map[string]*StoredTrace
	stats StoreStats
}

// NewStore returns a store with cfg's zero fields defaulted.
func NewStore(cfg StoreConfig) *Store {
	return &Store{cfg: cfg.withDefaults(), byID: map[string]*StoredTrace{}}
}

// offer runs the tail-sampling decision on a completed trace.
func (s *Store) offer(tr *StoredTrace) {
	if s == nil || tr == nil {
		return
	}
	switch {
	case tr.Error:
		tr.Reason = "error"
	case tr.Duration >= s.cfg.SlowThreshold:
		tr.Reason = "slow"
	case s.cfg.SampleRate >= 1.0 || s.cfg.Rand() < s.cfg.SampleRate:
		tr.Reason = "sampled"
	default:
		s.mu.Lock()
		s.stats.Dropped++
		s.mu.Unlock()
		return
	}
	// Spans arrive in end order; present them in start order.
	sort.SliceStable(tr.Spans, func(i, j int) bool {
		return tr.Spans[i].Start.Before(tr.Spans[j].Start)
	})
	s.mu.Lock()
	switch tr.Reason {
	case "error":
		s.stats.KeptError++
	case "slow":
		s.stats.KeptSlow++
	default:
		s.stats.KeptSample++
	}
	s.stats.Kept++
	if _, dup := s.byID[tr.TraceID]; !dup {
		s.order = append(s.order, tr.TraceID)
	}
	s.byID[tr.TraceID] = tr
	for len(s.order) > s.cfg.Capacity {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.byID, evict)
		s.stats.Evicted++
	}
	s.mu.Unlock()
}

// Get returns the stored trace with the given hex ID, or nil.
func (s *Store) Get(id string) *StoredTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// List returns summaries of retained traces, newest first, at most
// limit entries (limit <= 0 means all).
func (s *Store) List(limit int) []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.order)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]TraceSummary, 0, n)
	for i := len(s.order) - 1; i >= 0 && len(out) < n; i-- {
		tr := s.byID[s.order[i]]
		out = append(out, TraceSummary{
			TraceID:  tr.TraceID,
			Root:     tr.Root,
			Start:    tr.Start,
			Duration: tr.Duration,
			Spans:    len(tr.Spans),
			Error:    tr.Error,
			Reason:   tr.Reason,
		})
	}
	return out
}

// Len reports how many traces are retained.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Stats returns a copy of the sampler counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ChromeEvent is one Chrome trace_event record, the shape both trace
// exporters write (this package's wall-clock spans, in µs since the
// trace start, and internal/telemetry's lifecycle events, in cycles),
// so the same tooling (cmd/tracecheck, Perfetto) accepts either file.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// ChromeFile is the JSON-object form of the trace format; viewers also
// accept a bare array, but the object form carries metadata.
type ChromeFile struct {
	TraceEvents []ChromeEvent  `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteChrome serializes the trace as Chrome trace_event JSON
// (complete "X" events, µs since trace start, one tid lane per level
// of concurrency) — the wall-clock counterpart of the cycle-domain
// export in internal/telemetry.
func (tr *StoredTrace) WriteChrome(w io.Writer) error {
	if tr == nil {
		return fmt.Errorf("tracing: no trace")
	}
	out := ChromeFile{OtherData: map[string]any{
		"trace_id": tr.TraceID,
		"reason":   tr.Reason,
	}}
	out.TraceEvents = append(out.TraceEvents, ChromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "trace " + tr.TraceID},
	})

	// Greedy lane assignment: each span takes the lowest tid whose
	// previous occupant ended before this span starts, so overlapping
	// (concurrent) spans land on separate tracks.
	spans := make([]SpanData, len(tr.Spans))
	copy(spans, tr.Spans)
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].Start.Before(spans[j].Start)
	})
	var laneEnd []time.Time
	events := make([]ChromeEvent, 0, len(spans))
	for _, sp := range spans {
		tid := -1
		for i, end := range laneEnd {
			if !sp.Start.Before(end) {
				tid = i
				break
			}
		}
		if tid == -1 {
			tid = len(laneEnd)
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[tid] = sp.End
		args := map[string]any{"span_id": sp.SpanID}
		if sp.Parent != "" {
			args["parent_span_id"] = sp.Parent
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		if sp.Error != "" {
			args["error"] = sp.Error
		}
		for _, l := range sp.Links {
			args["link_trace_id"] = l.TraceID
		}
		dur := sp.End.Sub(sp.Start).Microseconds()
		if dur < 1 {
			dur = 1
		}
		events = append(events, ChromeEvent{
			Name: sp.Name,
			Cat:  "span",
			Ph:   "X",
			TS:   sp.Start.Sub(tr.Start).Microseconds(),
			Dur:  dur,
			Pid:  1,
			Tid:  tid,
			Args: args,
		})
	}
	// ValidateTrace requires monotonic ts per (pid, tid) track; start
	// order guarantees it globally.
	out.TraceEvents = append(out.TraceEvents, events...)
	return json.NewEncoder(w).Encode(out)
}

// WriteText renders the trace as an indented flame-style tree:
// parent/child nesting, per-span duration, and a bar scaled to the
// root duration. replayctl -trace uses this.
func (tr *StoredTrace) WriteText(w io.Writer) error {
	if tr == nil {
		return fmt.Errorf("tracing: no trace")
	}
	fmt.Fprintf(w, "trace %s  (%s, %d spans, reason=%s)\n",
		tr.TraceID, fmtDuration(tr.Duration), len(tr.Spans), tr.Reason)

	children := map[string][]SpanData{}
	ids := map[string]bool{}
	for _, sp := range tr.Spans {
		ids[sp.SpanID] = true
	}
	var roots []SpanData
	for _, sp := range tr.Spans {
		if sp.Parent != "" && ids[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(s []SpanData) {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	total := tr.Duration
	if total <= 0 {
		total = time.Nanosecond
	}
	const barWidth = 30
	var walk func(sp SpanData, depth int)
	walk = func(sp SpanData, depth int) {
		d := sp.End.Sub(sp.Start)
		frac := float64(d) / float64(total)
		if frac > 1 {
			frac = 1
		}
		fill := int(frac*barWidth + 0.5)
		if fill < 1 {
			fill = 1
		}
		bar := strings.Repeat("█", fill) + strings.Repeat("·", barWidth-fill)
		mark := ""
		if sp.Error != "" {
			mark = "  ERROR: " + sp.Error
		}
		for _, l := range sp.Links {
			mark += "  → trace " + l.TraceID
		}
		fmt.Fprintf(w, "%10s  %s  %s%s%s\n",
			fmtDuration(d), bar, strings.Repeat("  ", depth), sp.Name, mark)
		for _, c := range children[sp.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return nil
}
