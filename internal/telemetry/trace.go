package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/reuse"
)

// Thread (tid) lanes for trace events: one per lifecycle stage so
// Perfetto renders construction, optimization, fetch, and cache
// activity as separate tracks.
const (
	TidConstruct = 1
	TidOptimize  = 2
	TidFetch     = 3
	TidCache     = 4
)

// Event phases from the Chrome trace_event format: complete spans,
// instants, and metadata records.
const (
	phComplete = "X"
	phInstant  = "i"
	phMetadata = "M"
)

// ringEvent is the compact in-memory form of one lifecycle event. The
// human-readable args map is built only at export time.
type ringEvent struct {
	name  string
	ph    string
	ts    uint64 // cycle the event starts at
	dur   uint64 // span length (phComplete only)
	pid   int    // engine run (one per Attach), set at fold
	tid   int    // lifecycle lane (Tid* constants)
	frame uint64 // frame id, 0 if not applicable
	pc    uint32 // frame/entry start PC, 0 if not applicable
	uops  int    // primary size payload (uops)
	aux   uint64 // event-specific secondary payload
}

// Ring is the collector recording lifecycle events into a bounded
// overwrite-oldest buffer for Chrome trace_event export. Each engine run
// it attaches to becomes one trace process (pid), named after the run,
// so cycle counters that restart per run stay monotonic within a track.
// A run buffers its own events and appends them, under a new pid, when
// its fold applies. The ring is a sim.Ordered collector: sim applies
// its folds in trace order and, across a sweep's runs, in job order, so
// the export does not depend on how the runs were scheduled.
type Ring struct {
	label string
	jobID string

	mu   sync.Mutex
	buf  eventBuf
	runs []string // process names; pid i+1 is runs[i]
}

// eventBuf keeps the newest limit events, overwriting the oldest, and
// counts the events it overwrote.
type eventBuf struct {
	limit   int
	events  []ringEvent
	next    int // oldest event once full
	dropped uint64
}

func (b *eventBuf) push(e ringEvent) {
	if len(b.events) < b.limit {
		b.events = append(b.events, e)
		return
	}
	b.events[b.next] = e
	if b.next++; b.next == b.limit {
		b.next = 0
	}
	b.dropped++
}

// ordered returns a copy of the buffered events, oldest first.
func (b *eventBuf) ordered() []ringEvent {
	return append(append([]ringEvent(nil), b.events[b.next:]...), b.events[:b.next]...)
}

// NewRing returns a ring holding the newest capacity events. label and
// jobID tag every exported event ("job" and "job_id" args): in daemon
// mode the job's coalescing key and id, so ring events join the job's
// log lines and progress events.
func NewRing(capacity int, label, jobID string) *Ring {
	return &Ring{label: label, jobID: jobID,
		buf: eventBuf{limit: capacity, events: make([]ringEvent, 0, capacity)}}
}

// Attach returns the probe for one engine run, buffering at most the
// ring's capacity of its newest events, and the fold that registers the
// run as a new trace process and appends its events to the ring.
func (r *Ring) Attach(run string, _ int, _ *reuse.LoopStack) (pipeline.Probe, func()) {
	p := &ringProbe{buf: eventBuf{limit: r.buf.limit}}
	return p, sync.OnceFunc(func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.runs = append(r.runs, run)
		r.buf.dropped += p.buf.dropped
		for _, e := range p.buf.ordered() {
			e.pid = len(r.runs)
			r.buf.push(e)
		}
	})
}

// FoldsInOrder marks the ring as a sim.Ordered collector: its pids and
// its bounded wrap follow the order its folds apply in.
func (r *Ring) FoldsInOrder() {}

// snapshot returns the buffered events in ring order (each run's
// events in arrival order, run after run) and the run names.
func (r *Ring) snapshot() (events []ringEvent, dropped uint64, runs []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.ordered(), r.buf.dropped, append([]string(nil), r.runs...)
}

// ringProbe turns one engine run's lifecycle events into ring events.
// FrameHit opens a frame fetch and FrameRetired closes it as one
// frame-commit or frame-abort span.
type ringProbe struct {
	pipeline.NopProbe
	buf eventBuf

	fetchAt    uint64
	fetchFrame uint64
	fetchPC    uint32
}

func (p *ringProbe) FrameBuilt(cycle, id uint64, pc uint32, uops int) {
	p.buf.push(ringEvent{name: "construct", ph: phInstant, ts: cycle,
		tid: TidConstruct, frame: id, pc: pc, uops: uops})
}

func (p *ringProbe) OptRemoved(cycle, id uint64, pc uint32, uopsIn, uopsOut int, dwell uint64) {
	p.buf.push(ringEvent{name: "optimize", ph: phComplete, ts: cycle, dur: dwell,
		tid: TidOptimize, frame: id, pc: pc, uops: uopsIn, aux: uint64(uopsOut)})
}

func (p *ringProbe) CacheInsert(cycle uint64, pc uint32, uops int) {
	p.buf.push(ringEvent{name: "cache-insert", ph: phInstant, ts: cycle,
		tid: TidCache, pc: pc, uops: uops})
}

func (p *ringProbe) Evict(cycle uint64, pc uint32, uops int, residency uint64) {
	p.buf.push(ringEvent{name: "cache-evict", ph: phInstant, ts: cycle,
		tid: TidCache, pc: pc, uops: uops, aux: residency})
}

func (p *ringProbe) FrameHit(cycle, id uint64, pc uint32) {
	p.fetchAt, p.fetchFrame, p.fetchPC = cycle, id, pc
	p.buf.push(ringEvent{name: "cache-hit", ph: phInstant, ts: cycle, tid: TidCache, pc: pc})
}

func (p *ringProbe) FrameRetired(cycle uint64, uops int, committed bool) {
	name := "frame-commit"
	if !committed {
		name = "frame-abort"
	}
	p.buf.push(ringEvent{name: name, ph: phComplete, ts: p.fetchAt, dur: cycle - p.fetchAt,
		tid: TidFetch, frame: p.fetchFrame, pc: p.fetchPC, uops: uops})
}

func (p *ringProbe) AssertFired(cycle, id uint64, pc uint32, unsafe bool) {
	aux := uint64(0)
	if unsafe {
		aux = 1
	}
	p.buf.push(ringEvent{name: "assert-fire", ph: phInstant, ts: cycle,
		tid: TidFetch, frame: id, pc: pc, aux: aux})
}

// TraceFetch records a trace-cache hit and the line's fetch span (TC
// mode has no frame ids).
func (p *ringProbe) TraceFetch(start, end uint64, pc uint32, uops int) {
	p.buf.push(ringEvent{name: "cache-hit", ph: phInstant, ts: start, tid: TidCache, pc: pc})
	p.buf.push(ringEvent{name: "trace-fetch", ph: phComplete, ts: start, dur: end - start,
		tid: TidFetch, pc: pc, uops: uops})
}

// traceEvent is the exported Chrome trace_event JSON shape.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object form of the trace format; viewers also
// accept a bare array, but the object form carries metadata.
type traceFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

var tidNames = map[int]string{
	TidConstruct: "construct",
	TidOptimize:  "optimize",
	TidFetch:     "fetch",
	TidCache:     "frame-cache",
}

// WriteTrace serializes the ring as Chrome trace_event JSON, viewable
// in chrome://tracing or Perfetto. Events are stably sorted by
// timestamp (cycle), so ts is monotonic within every (pid, tid) track
// and equal timestamps keep ring order.
func (r *Ring) WriteTrace(w io.Writer) error {
	events, dropped, runs := r.snapshot()
	sort.SliceStable(events, func(i, j int) bool { return events[i].ts < events[j].ts })

	out := traceFile{OtherData: map[string]any{"dropped_events": dropped}}
	if r.label != "" {
		out.OtherData["job"] = r.label
	}
	if r.jobID != "" {
		out.OtherData["job_id"] = r.jobID
	}

	// Metadata first: name each run's process and each lane's thread.
	for i, name := range runs {
		pid := i + 1
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "process_name", Ph: phMetadata, Pid: pid,
			Args: map[string]any{"name": name},
		})
		for tid := TidConstruct; tid <= TidCache; tid++ {
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "thread_name", Ph: phMetadata, Pid: pid, Tid: tid,
				Args: map[string]any{"name": tidNames[tid]},
			})
		}
	}

	for _, e := range events {
		te := traceEvent{
			Name: e.name,
			Cat:  tidNames[e.tid],
			Ph:   e.ph,
			TS:   e.ts,
			Dur:  e.dur,
			Pid:  e.pid,
			Tid:  e.tid,
			Args: map[string]any{},
		}
		if e.ph == phInstant {
			te.S = "t" // thread-scoped instant
		}
		if e.frame != 0 {
			te.Args["frame"] = e.frame
		}
		if e.pc != 0 {
			te.Args["pc"] = fmt.Sprintf("%#x", e.pc)
		}
		switch e.name {
		case "optimize":
			te.Args["uops_in"] = e.uops
			te.Args["uops_out"] = e.aux
		case "cache-evict":
			te.Args["uops"] = e.uops
			te.Args["residency"] = e.aux
		case "assert-fire":
			te.Args["unsafe"] = e.aux == 1
		default:
			if e.uops != 0 {
				te.Args["uops"] = e.uops
			}
		}
		if r.label != "" {
			te.Args["job"] = r.label
		}
		if r.jobID != "" {
			te.Args["job_id"] = r.jobID
		}
		if len(te.Args) == 0 {
			te.Args = nil
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ValidateTrace checks data against the Chrome trace-event shape the
// exporter promises: well-formed JSON, every event carrying name/ph,
// and ts monotonically non-decreasing within each (pid, tid) track.
// CI's trace smoke step and tests share this.
func ValidateTrace(data []byte) error {
	var tf struct {
		TraceEvents []struct {
			Name *string `json:"name"`
			Ph   *string `json:"ph"`
			TS   *int64  `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("trace JSON: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("trace has no events")
	}
	type track struct{ pid, tid int }
	last := map[track]int64{}
	for i, e := range tf.TraceEvents {
		if e.Name == nil || *e.Name == "" {
			return fmt.Errorf("event %d: missing name", i)
		}
		if e.Ph == nil || *e.Ph == "" {
			return fmt.Errorf("event %d: missing ph", i)
		}
		if *e.Ph == phMetadata {
			continue
		}
		if e.TS == nil {
			return fmt.Errorf("event %d (%s): missing ts", i, *e.Name)
		}
		k := track{e.Pid, e.Tid}
		if prev, ok := last[k]; ok && *e.TS < prev {
			return fmt.Errorf("event %d (%s): ts %d < %d on track pid=%d tid=%d",
				i, *e.Name, *e.TS, prev, e.Pid, e.Tid)
		}
		last[k] = *e.TS
	}
	return nil
}
