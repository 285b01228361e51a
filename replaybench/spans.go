package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// maxKeptSpans bounds the spans a traced run keeps for the Chrome
// export; per-layer self times are aggregated over every span regardless.
const maxKeptSpans = 1 << 17

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch; parent indexes the same operation's span list, -1
// for the operation's root.
type span struct {
	name       string
	label      string
	start, end int64
	parent     int32
}

// opTrace collects the spans of one operation (a round, a sweep or a
// request). It is used by one goroutine; finish hands it to the
// recorder.
type opTrace struct {
	rec   *recorder
	tid   int
	spans []span
	steps uint64 // instructions its traced simulations interpreted
}

// begin opens a span and returns its index. A nil opTrace records
// nothing, so the traced path also runs untraced.
func (t *opTrace) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.rec.now(), end: -1, parent: int32(parent)})
	return len(t.spans) - 1
}

func (t *opTrace) end(i int) {
	if t != nil {
		t.spans[i].end = t.rec.now()
	}
}

// add records a span whose interval was measured elsewhere.
func (t *opTrace) add(name string, parent int, start, end int64) {
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: int32(parent)})
}

// recorder aggregates the spans of a traced run: self time per span
// name, and the root spans' total and own self time, so the layers'
// shares of traced wall time can be checked to sum to one.
type recorder struct {
	epoch time.Time
	keep  bool // retain spans for the Chrome export

	mu       sync.Mutex
	self     map[string]time.Duration
	rootDur  time.Duration
	rootSelf time.Duration // the part of rootDur no layer span covers
	steps    uint64
	kept     []keptSpan
}

type keptSpan struct {
	span
	tid int
}

func newRecorder(keep bool) *recorder {
	return &recorder{epoch: time.Now(), keep: keep, self: map[string]time.Duration{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newOp(tid int) *opTrace {
	return &opTrace{rec: r, tid: tid, spans: make([]span, 0, 64)}
}

// finish adds the operation's self times to the totals.
func (r *recorder) finish(t *opTrace) {
	self := selfTimes(t.spans)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.steps += t.steps
	for i, s := range t.spans {
		r.self[s.name] += self[i]
		if s.parent < 0 {
			r.rootDur += time.Duration(s.end - s.start)
			r.rootSelf += self[i]
		}
	}
	if r.keep {
		for _, s := range t.spans {
			if len(r.kept) == maxKeptSpans {
				break
			}
			r.kept = append(r.kept, keptSpan{span: s, tid: t.tid})
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, at := int64(0), s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, at), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = time.Duration(s.end - s.start - covered)
	}
	return self
}

// selfPerName returns the aggregated self time of each span name and
// the instructions the traced simulations interpreted.
func (r *recorder) selfPerName() (map[string]time.Duration, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration, len(r.self))
	for k, v := range r.self {
		out[k] = v
	}
	return out, r.steps
}

// chromeEvent is one Chrome trace_event "complete" event; ts and dur
// are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the kept spans as Chrome trace_event JSON, sorted
// by start so timestamps never decrease within a thread lane.
func (r *recorder) writeChrome(w io.Writer) error {
	r.mu.Lock()
	kept := append([]keptSpan(nil), r.kept...)
	r.mu.Unlock()
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].start != kept[j].start {
			return kept[i].start < kept[j].start
		}
		return kept[i].end-kept[i].start > kept[j].end-kept[j].start
	})
	events := make([]chromeEvent, 0, len(kept))
	for _, s := range kept {
		e := chromeEvent{Name: s.name, Ph: "X", TS: s.start / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.tid}
		if s.label != "" {
			e.Args = map[string]string{"label": s.label}
		}
		events = append(events, e)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
