package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/tracing"
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
	pid   int    // engine run, set at export
	tid   int    // lifecycle lane (Tid* constants)
	frame uint64 // frame id, 0 if not applicable
	pc    uint32 // frame/entry start PC, 0 if not applicable
	uops  int    // primary size payload (uops)
	aux   uint64 // event-specific secondary payload
}

// Ring is the collector recording lifecycle events for Chrome
// trace_event export. Each engine run it attaches to keeps its newest
// capacity events and becomes one trace process (pid), named after the
// run, so cycle counters that restart per run stay monotonic within a
// track. The export is a function of the set of runs folded in, never
// of the order their folds apply in: runs are ordered by name, pids
// follow that order, and the ring keeps the newest capacity events of
// the runs concatenated in it. A run's name must identify its
// configuration (sim names ablation variants and a diff's variant side
// apart), so runs sharing a name are the same deterministic run, whose
// relative order changes nothing.
type Ring struct {
	label    string
	jobID    string
	capacity int

	mu      sync.Mutex
	runs    []ringRun // by name
	dropped uint64    // events seen and released
}

// ringRun is one folded engine run. Its events are released (and
// counted dropped) once the runs after it hold capacity events, since
// no later fold can bring them back into the window.
type ringRun struct {
	name   string
	events []ringEvent
}

// NewRing returns a ring holding the newest capacity events. label and
// jobID tag every exported event ("job" and "job_id" args): in daemon
// mode the job's coalescing key and id, so ring events join the job's
// log lines and progress events.
func NewRing(capacity int, label, jobID string) *Ring {
	return &Ring{label: label, jobID: jobID, capacity: capacity}
}

// Attach returns the probe for one engine run, buffering at most the
// ring's capacity of its newest events, and the fold that adds the run
// to the ring.
func (r *Ring) Attach(run string, _ int, _ *reuse.LoopStack) (pipeline.Probe, func()) {
	p := &ringProbe{limit: r.capacity}
	return p, sync.OnceFunc(func() {
		events := slices.Concat(p.events[p.next:], p.events[:p.next]) // oldest first
		r.mu.Lock()
		defer r.mu.Unlock()
		i, _ := slices.BinarySearchFunc(r.runs, run, func(a ringRun, name string) int { return cmp.Compare(a.name, name) })
		r.runs = slices.Insert(r.runs, i, ringRun{name: run, events: events})
		r.dropped += p.dropped
		held := 0
		for i := len(r.runs) - 1; i >= 0; i-- {
			if held >= r.capacity {
				r.dropped += uint64(len(r.runs[i].events))
				r.runs[i].events = nil
			}
			held += len(r.runs[i].events)
		}
	})
}

// snapshot returns the window (the newest capacity events of the runs
// in ring order, each run's oldest first), the dropped count and the
// run names; pid i+1 is runs[i].
func (r *Ring) snapshot() (events []ringEvent, dropped uint64, runs []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, run := range r.runs {
		runs = append(runs, run.name)
		for _, e := range run.events {
			e.pid = i + 1
			events = append(events, e)
		}
	}
	dropped = r.dropped
	if n := len(events) - r.capacity; n > 0 {
		events, dropped = events[n:], dropped+uint64(n)
	}
	return events, dropped, runs
}

// ringProbe turns one engine run's lifecycle events into ring events,
// keeping the newest limit of them and counting the ones it overwrote.
// FrameHit opens a frame fetch and FrameRetired closes it as one
// frame-commit or frame-abort span.
type ringProbe struct {
	pipeline.NopProbe
	limit   int
	events  []ringEvent
	next    int // oldest event once full
	dropped uint64

	fetchAt    uint64
	fetchFrame uint64
	fetchPC    uint32
}

func (p *ringProbe) push(e ringEvent) {
	if len(p.events) < p.limit {
		p.events = append(p.events, e)
		return
	}
	p.events[p.next] = e
	if p.next++; p.next == p.limit {
		p.next = 0
	}
	p.dropped++
}

func (p *ringProbe) FrameBuilt(cycle, id uint64, pc uint32, uops int) {
	p.push(ringEvent{name: "construct", ph: phInstant, ts: cycle,
		tid: TidConstruct, frame: id, pc: pc, uops: uops})
}

func (p *ringProbe) OptRemoved(cycle, id uint64, pc uint32, uopsIn, uopsOut int, dwell uint64) {
	p.push(ringEvent{name: "optimize", ph: phComplete, ts: cycle, dur: dwell,
		tid: TidOptimize, frame: id, pc: pc, uops: uopsIn, aux: uint64(uopsOut)})
}

func (p *ringProbe) CacheInsert(cycle uint64, pc uint32, uops int) {
	p.push(ringEvent{name: "cache-insert", ph: phInstant, ts: cycle,
		tid: TidCache, pc: pc, uops: uops})
}

func (p *ringProbe) Evict(cycle uint64, pc uint32, uops int, residency uint64) {
	p.push(ringEvent{name: "cache-evict", ph: phInstant, ts: cycle,
		tid: TidCache, pc: pc, uops: uops, aux: residency})
}

func (p *ringProbe) FrameHit(cycle, id uint64, pc uint32) {
	p.fetchAt, p.fetchFrame, p.fetchPC = cycle, id, pc
	p.push(ringEvent{name: "cache-hit", ph: phInstant, ts: cycle, tid: TidCache, pc: pc})
}

func (p *ringProbe) FrameRetired(cycle uint64, uops int, committed bool) {
	name := "frame-commit"
	if !committed {
		name = "frame-abort"
	}
	p.push(ringEvent{name: name, ph: phComplete, ts: p.fetchAt, dur: cycle - p.fetchAt,
		tid: TidFetch, frame: p.fetchFrame, pc: p.fetchPC, uops: uops})
}

func (p *ringProbe) AssertFired(cycle, id uint64, pc uint32, unsafe bool) {
	aux := uint64(0)
	if unsafe {
		aux = 1
	}
	p.push(ringEvent{name: "assert-fire", ph: phInstant, ts: cycle,
		tid: TidFetch, frame: id, pc: pc, aux: aux})
}

// TraceFetch records a trace-cache hit and the line's fetch span (TC
// mode has no frame ids).
func (p *ringProbe) TraceFetch(start, end uint64, pc uint32, uops int) {
	p.push(ringEvent{name: "cache-hit", ph: phInstant, ts: start, tid: TidCache, pc: pc})
	p.push(ringEvent{name: "trace-fetch", ph: phComplete, ts: start, dur: end - start,
		tid: TidFetch, pc: pc, uops: uops})
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
	slices.SortStableFunc(events, func(a, b ringEvent) int { return cmp.Compare(a.ts, b.ts) })

	// The job tags go on the file and on every event.
	tags := map[string]any{}
	if r.label != "" {
		tags["job"] = r.label
	}
	if r.jobID != "" {
		tags["job_id"] = r.jobID
	}
	out := tracing.ChromeFile{OtherData: maps.Clone(tags)}
	out.OtherData["dropped_events"] = dropped

	// Metadata first: name each run's process and each lane's thread.
	for i, name := range runs {
		pid := i + 1
		out.TraceEvents = append(out.TraceEvents, tracing.ChromeEvent{
			Name: "process_name", Ph: phMetadata, Pid: pid,
			Args: map[string]any{"name": name},
		})
		for tid := TidConstruct; tid <= TidCache; tid++ {
			out.TraceEvents = append(out.TraceEvents, tracing.ChromeEvent{
				Name: "thread_name", Ph: phMetadata, Pid: pid, Tid: tid,
				Args: map[string]any{"name": tidNames[tid]},
			})
		}
	}

	for _, e := range events {
		te := tracing.ChromeEvent{
			Name: e.name,
			Cat:  tidNames[e.tid],
			Ph:   e.ph,
			TS:   int64(e.ts),
			Dur:  int64(e.dur),
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
		maps.Copy(te.Args, tags)
		if len(te.Args) == 0 {
			te.Args = nil
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}

	return json.NewEncoder(w).Encode(out)
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
