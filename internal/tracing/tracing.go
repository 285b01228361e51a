// Package tracing is a zero-dependency span layer for the serving
// stack: request-scoped traces in the wall-clock domain, complementing
// internal/telemetry's cycle-domain lifecycle events. A Tracer roots a
// trace per API request (continuing a W3C traceparent when the client
// sent one), layers below open child spans through the context, and
// completed traces land in a bounded Store with tail-based sampling —
// error and slow-tail traces are always retained, the rest are
// probabilistically sampled — queryable by trace ID.
//
// The package follows internal/telemetry's conventions: one atomic
// enabled gate, every method safe on a nil receiver, and a disabled
// hot path that costs a nil check (plus one context lookup at span
// creation sites).
package tracing

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is all zeros (invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all zeros (invalid per W3C).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random, non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		_, _ = rand.Read(t[:])
	}
	return t
}

// NewSpanID returns a random, non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		_, _ = rand.Read(s[:])
	}
	return s
}

// Link points from a span to another trace — the coalescing path uses
// it to connect a follower request's trace to the leader job's.
type Link struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id,omitempty"`
}

// SpanData is the completed, wire-ready form of one span. IDs are hex
// strings so the JSON served from /debug/traces needs no decoding.
type SpanData struct {
	SpanID string `json:"span_id"`
	// Parent is the parent span ID; for the root span of a trace that
	// continued a client traceparent it names the client's (remote)
	// span, which has no SpanData in the trace.
	Parent string         `json:"parent_span_id,omitempty"`
	Name   string         `json:"name"`
	Start  time.Time      `json:"start"`
	End    time.Time      `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	Links  []Link         `json:"links,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// traceBuf assembles the spans of one in-flight trace. The trace
// finalizes when its root span has ended and no span remains open, so
// asynchronously-submitted jobs whose spans outlive the HTTP request
// still produce complete traces.
type traceBuf struct {
	id     TraceID
	root   SpanID
	remote SpanID // parent from the client's traceparent, zero if locally rooted

	mu        sync.Mutex
	open      int
	rootEnded bool
	spans     []SpanData
	hasError  bool
	start     time.Time
	end       time.Time
}

// Span is one in-flight operation of a trace. The zero of *Span (nil)
// is a valid no-op span: every method is nil-safe, so instrumentation
// sites never branch on whether tracing is on.
type Span struct {
	tracer *Tracer
	buf    *traceBuf
	isRoot bool

	id     SpanID
	parent SpanID

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// TraceID returns the span's trace identity (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.buf.id
}

// SpanID returns the span's identity (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Traceparent returns the propagation header value naming this span as
// the parent, with the sampled flag set.
func (s *Span) Traceparent() Traceparent {
	if s == nil {
		return Traceparent{}
	}
	return Traceparent{Trace: s.buf.id, Span: s.id, Flags: FlagSampled}
}

// SetAttr records one key/value attribute. Values should be plain
// JSON-encodable types (string, int, bool, float).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]any{}
	}
	s.data.Attrs[key] = value
	s.mu.Unlock()
}

// SetError marks the span failed; any errored span makes the whole
// trace an error trace, which the tail sampler always retains.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Error = err.Error()
	s.mu.Unlock()
}

// AddLink attaches a cross-trace link (e.g. a coalesced follower
// pointing at the leader job's trace).
func (s *Span) AddLink(tid TraceID, sid SpanID) {
	if s == nil {
		return
	}
	l := Link{TraceID: tid.String()}
	if !sid.IsZero() {
		l.SpanID = sid.String()
	}
	s.mu.Lock()
	s.data.Links = append(s.data.Links, l)
	s.mu.Unlock()
}

// End completes the span. Ending the root span (once every child has
// also ended) finalizes the trace and hands it to the store's tail
// sampler. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = time.Now()
	data := s.data
	s.mu.Unlock()

	b := s.buf
	b.mu.Lock()
	b.spans = append(b.spans, data)
	if data.Error != "" {
		b.hasError = true
	}
	b.open--
	if s.isRoot {
		b.rootEnded = true
		b.end = data.End
	}
	final := b.rootEnded && b.open <= 0
	b.mu.Unlock()
	if final {
		s.tracer.finalize(b)
	}
}

// EmitChild records an already-completed child span directly — used
// for synthesized spans (per-optimizer-pass aggregates) whose timing
// was measured outside the span lifecycle.
func (s *Span) EmitChild(name string, start, end time.Time, attrs map[string]any) {
	if s == nil {
		return
	}
	data := SpanData{
		SpanID: NewSpanID().String(),
		Parent: s.id.String(),
		Name:   name,
		Start:  start,
		End:    end,
		Attrs:  attrs,
	}
	b := s.buf
	b.mu.Lock()
	b.spans = append(b.spans, data)
	b.mu.Unlock()
}

// child opens a span under s in the same trace.
func (s *Span) child(name string) *Span {
	c := &Span{
		tracer: s.tracer,
		buf:    s.buf,
		id:     NewSpanID(),
		parent: s.id,
	}
	c.data = SpanData{
		SpanID: c.id.String(),
		Parent: s.id.String(),
		Name:   name,
		Start:  time.Now(),
	}
	b := s.buf
	b.mu.Lock()
	b.open++
	b.mu.Unlock()
	return c
}

// Tracer roots traces and assembles their spans until completion. It
// is safe for concurrent use; a nil Tracer is a valid no-op.
type Tracer struct {
	enabled atomic.Bool
	store   *Store

	mu     sync.Mutex
	active map[TraceID]*traceBuf

	// maxActive bounds the in-flight trace map so a span leak (a span
	// that never ends) cannot grow memory without bound; new traces are
	// dropped (not recorded) while the map is full.
	maxActive int
	droppedAt atomic.Uint64
}

// DefaultMaxActive bounds concurrently assembling traces.
const DefaultMaxActive = 1024

// NewTracer returns an enabled tracer delivering completed traces to
// store (which may be nil: spans are then assembled and discarded,
// useful only in tests).
func NewTracer(store *Store) *Tracer {
	t := &Tracer{
		store:     store,
		active:    map[TraceID]*traceBuf{},
		maxActive: DefaultMaxActive,
	}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled flips the atomic gate. Traces already assembling complete
// normally; new roots are refused while disabled.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// StartRoot opens the root span of a new trace and attaches it to the
// returned context. When tp is non-nil the trace continues the
// client's identity: same trace ID, the client's span as remote
// parent. Returns (ctx, nil) when the tracer is nil or disabled.
func (t *Tracer) StartRoot(ctx context.Context, name string, tp *Traceparent) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	b := &traceBuf{start: time.Now()}
	if tp != nil && !tp.Trace.IsZero() {
		b.id = tp.Trace
		b.remote = tp.Span
	} else {
		b.id = NewTraceID()
	}
	t.mu.Lock()
	if len(t.active) >= t.maxActive {
		t.mu.Unlock()
		t.droppedAt.Add(1)
		return ctx, nil
	}
	if _, dup := t.active[b.id]; dup {
		// A second request reusing the same traceparent: root a fresh
		// trace rather than corrupting the assembling one.
		b.id = NewTraceID()
		b.remote = SpanID{}
	}
	t.active[b.id] = b
	t.mu.Unlock()

	s := &Span{tracer: t, buf: b, isRoot: true, id: NewSpanID(), parent: b.remote}
	b.root = s.id
	s.data = SpanData{
		SpanID: s.id.String(),
		Name:   name,
		Start:  b.start,
	}
	if !b.remote.IsZero() {
		s.data.Parent = b.remote.String()
	}
	b.mu.Lock()
	b.open++
	b.mu.Unlock()
	return ContextWithSpan(ctx, s), s
}

// finalize hands a completed trace to the store's sampler and forgets
// it.
func (t *Tracer) finalize(b *traceBuf) {
	t.mu.Lock()
	delete(t.active, b.id)
	t.mu.Unlock()
	if t.store == nil {
		return
	}
	b.mu.Lock()
	tr := &StoredTrace{
		TraceID:  b.id.String(),
		Start:    b.start,
		Duration: b.end.Sub(b.start),
		Error:    b.hasError,
		Spans:    b.spans,
	}
	for i := range b.spans {
		if b.spans[i].SpanID == b.root.String() {
			tr.Root = b.spans[i].Name
			break
		}
	}
	b.mu.Unlock()
	t.store.offer(tr)
}

// ActiveTraces reports how many traces are currently assembling.
func (t *Tracer) ActiveTraces() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

type ctxKey struct{}

// ContextWithSpan attaches a span to ctx; layers that change the
// cancellation context (e.g. a job outliving its submitting request)
// use it to re-carry the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child of the context's active span and returns a
// context carrying the new span. With no active span (tracing off, or
// a call path outside any traced request) it returns (ctx, nil) — the
// universal cheap no-op that lets sim and pipeline instrument
// unconditionally.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || !parent.tracer.Enabled() {
		return ctx, nil
	}
	c := parent.child(name)
	return ContextWithSpan(ctx, c), c
}

// fmtDuration renders a duration compactly for the text views.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
