package sim

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/workload"
)

// The capture layer: the functional IA-32 interpreter runs once per
// (profile, trace index), recording the retired slot stream; all four
// pipeline modes — and every later experiment or request over the same
// workload, at any budget the recording covers — replay the recording
// instead of re-interpreting. A request for a longer budget records
// again at that budget and publishes the new recording in place of the
// old one; a published recording is never mutated, so runs still
// replaying the old one keep a consistent stream. The decoded/translated
// stream is deterministic per (profile, trace), so replayed runs are
// bit-identical to interpreted ones, and a prefix of a longer recording
// is slot for slot the recording a shorter budget would have made. An
// uploaded trace is kept here too, adapted once into a recording of the
// same form and keyed on its content ID (CachedExternal).

// captureSlack is how many slots beyond the instruction budget a capture
// records. The engine consumes past the budget by at most one frame of
// retirement overshoot (<= MaxUOps x86 instructions) plus one frame of
// lookahead, so a couple thousand slots of slack guarantees a replayed
// engine never sees a premature end-of-stream.
const captureSlack = 2048

// slotSource is a correct-path stream that can report a deferred
// interpreter error once the run is over.
type slotSource interface {
	pipeline.Source
	Err() error
}

// Err surfaces an interpreter failure after a live run.
func (s *cpuStream) Err() error { return s.err }

// recordedStream is a recording and how its stream ended. A capture's
// recording shares the interpreter's decode table, so a full-budget
// capture is a few MB instead of the tens of MB a slice of 112-byte
// slots costs, which is what lets DefaultCaptureEntries cover a whole sweep.
// The recording is held by value (copied in empty and appended in
// place, or copied once complete), so NextInto, which runs once per
// replayed instruction, reaches the columns through one pointer.
type recordedStream struct {
	translate.Recording
	err   error // interpreter error hit at the end of the slots, if any
	atEnd bool  // the program genuinely ended (vs the capture bound)
}

// errCaptureExhausted reports a replay that consumed the whole recording
// without the underlying program having ended — a would-be silent
// divergence from a live run, turned into a loud failure.
var errCaptureExhausted = errors.New("sim: captured slot stream exhausted before the run finished (captureSlack too small)")

// replayStream serves a recordedStream as a pipeline.Source. Each engine
// gets its own cursor; the records themselves are shared read-only.
type replayStream struct {
	rec       *recordedStream
	pos       int
	exhausted bool
}

// NextInto fills s with the next recorded instruction, which the engine
// passes from its own storage: a pointer to its shared decode entry,
// its successor, and its addresses, which alias the recording.
func (r *replayStream) NextInto(s *pipeline.Rec) bool {
	if r.pos >= r.rec.Len() {
		r.exhausted = true
		return false
	}
	s.Entry, s.NextPC, s.MemAddrs = r.rec.At(r.pos)
	r.pos++
	return true
}

func (r *replayStream) Err() error {
	if !r.exhausted {
		return nil
	}
	if r.rec.err != nil {
		return r.rec.err
	}
	if !r.rec.atEnd {
		return errCaptureExhausted
	}
	return nil
}

// captureRecorded drains the interpreter into a recording of at most max
// slots. An interpreter error is stored positionally: a replay only
// surfaces it if the engine actually consumes that far, exactly like a
// live run. The decode table is taken over from the interpreter stream,
// so every replayed slot shares it.
func captureRecorded(prog *workload.Program, max int) *recordedStream {
	src := newCPUStream(prog)
	rec := &recordedStream{Recording: *translate.NewRecording(src.table, max)}
	for rec.Len() < max {
		d, nextPC, addrs, ok := src.step()
		if !ok {
			rec.atEnd = true
			rec.err = src.err
			return rec
		}
		rec.Append(d.ID, nextPC, addrs)
	}
	return rec
}

// Default capture-cache budgets, counted per (profile, trace). A
// full-budget columnar recording is a few MB, so the defaults
// comfortably cover every (workload, trace) of the paper's sweep —
// later figures replay instead of re-interpreting — while still capping
// long-lived custom-workload hosts.
const (
	DefaultCaptureEntries = 32
	DefaultCaptureBytes   = 256 << 20
)

// captureKey identifies a recording by value: the profile covers every
// generator knob, so two custom workloads sharing a name but differing
// in shape never collide. The budget is not part of the key: one
// recording serves every budget it covers. An uploaded trace's entry
// keys on its content ID alone.
type captureKey struct {
	profile workload.Profile
	trace   int
	upload  string
}

// captureEntry is the current recording of one (profile, trace), or
// the adapted run of one upload, an element of captureCache.lru. A
// recording is immutable once published in rec, so a request it covers
// loads it without waiting; build serializes the re-recordings that
// grow it, so racing requests for a budget it does not cover interpret
// once, and guards the adaptation that fills ext, so racing runs over
// an upload adapt it once.
type captureEntry struct {
	key    captureKey
	rec    atomic.Pointer[recordedStream]
	ext    atomic.Pointer[ExternalRun] // stored under build
	build  sync.Mutex
	genErr error // under build: the program could not be generated
	bytes  int64 // under captureCache.mu: the residency charged for rec or ext
}

// covers reports whether the recording serves a run of budget
// instructions: it ended with the program, or it holds the budget plus
// the replay slack. The engine stops at its budget, so a replay reads
// only the prefix an exact-budget capture would hold and times
// identically.
func (rec *recordedStream) covers(budget int) bool {
	return rec != nil && (rec.atEnd || rec.Len() >= budget+captureSlack)
}

// captureCache shares recordings across the concurrent (workload, mode)
// jobs of a sweep and across the budgets of later requests. LRU
// eviction bounds residency by entry count and by approximate bytes (an
// evicted or replaced recording still in use stays alive via its users'
// references). The most recent entry is never evicted, so one oversized
// capture degrades to cache-of-one rather than thrashing.
type captureCache struct {
	mu         sync.Mutex
	m          map[captureKey]*list.Element // of *captureEntry
	lru        *list.List                   // front = most recently used
	bytes      int64                        // sum of the entries' charged sizes
	maxEntries int
	maxBytes   int64
}

var captures = &captureCache{
	m:          map[captureKey]*list.Element{},
	lru:        list.New(),
	maxEntries: DefaultCaptureEntries,
	maxBytes:   DefaultCaptureBytes,
}

// get returns a recording of trace traceIdx of p that covers budget. A
// covered request is a hit and never waits; an uncovered one records
// again at its own budget and publishes the new recording in place of
// the old one.
func (c *captureCache) get(p workload.Profile, traceIdx, budget int) (*recordedStream, error) {
	key := captureKey{profile: p, trace: traceIdx}
	if !selfEqual(key) {
		// A NaN knob: the key could never be found, or deleted, again.
		return record(p, traceIdx, budget)
	}
	e := c.entry(key)
	if rec := e.rec.Load(); rec.covers(budget) {
		metrics.captureHits.Add(1)
		return rec, nil
	}
	e.build.Lock()
	defer e.build.Unlock()
	if rec := e.rec.Load(); rec.covers(budget) || e.genErr != nil {
		// A racing request recorded far enough, or found the program
		// cannot be generated, while this one waited.
		metrics.captureHits.Add(1)
		return rec, e.genErr
	}
	rec, err := record(p, traceIdx, budget)
	if err != nil {
		e.genErr = err
		return nil, err
	}
	e.rec.Store(rec)
	c.charge(e, rec.SizeBytes())
	return rec, nil
}

// entry returns key's entry, inserting it if absent, as the most
// recently used, and evicts past the budgets.
func (c *captureCache) entry(key captureKey) *captureEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*captureEntry)
	}
	e := &captureEntry{key: key}
	c.m[key] = c.lru.PushFront(e)
	c.evict()
	return e
}

// charge moves e's residency to bytes and evicts past the budgets. An
// entry already evicted by a racing insert holds no residency to move.
func (c *captureCache) charge(e *captureEntry, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, live := c.m[e.key]; live && el.Value.(*captureEntry) == e {
		c.bytes += bytes - e.bytes
		e.bytes = bytes
		c.evict()
	}
}

// record interprets trace traceIdx of p into a new recording of budget
// instructions plus the replay slack.
func record(p workload.Profile, traceIdx, budget int) (*recordedStream, error) {
	metrics.captureBuilds.Add(1)
	prog, err := workload.Generate(p, traceIdx)
	if err != nil {
		return nil, err
	}
	return captureRecorded(prog, budget+captureSlack), nil
}

// evict drops least-recently-used entries while either budget is
// exceeded, always retaining the most recent entry. Caller holds c.mu.
func (c *captureCache) evict() {
	for c.lru.Len() > 1 && (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) {
		e := c.lru.Remove(c.lru.Back()).(*captureEntry)
		c.bytes -= e.bytes
		delete(c.m, e.key)
	}
}

func (c *captureCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = map[captureKey]*list.Element{}
	c.lru.Init()
	c.bytes = 0
}

// SetCaptureLimits sets the capture cache's entry and byte budgets
// (values < 1 keep the current setting) and evicts down to them.
func SetCaptureLimits(entries int, bytes int64) {
	captures.mu.Lock()
	defer captures.mu.Unlock()
	if entries >= 1 {
		captures.maxEntries = entries
	}
	if bytes >= 1 {
		captures.maxBytes = bytes
	}
	captures.evict()
}

// CaptureOccupancy reports the capture cache's current and maximum
// entry count and approximate byte residency.
func CaptureOccupancy() (entries int, bytes int64, entryLimit int, byteLimit int64) {
	captures.mu.Lock()
	defer captures.mu.Unlock()
	return captures.lru.Len(), captures.bytes, captures.maxEntries, captures.maxBytes
}

// Capture interprets the program for at most n retired instructions
// and returns their recording, whose decode table is the interpreter's.
// An interpreter error inside the window is returned.
func Capture(prog *workload.Program, n int) (*translate.Recording, error) {
	rec := captureRecorded(prog, n)
	if rec.err != nil {
		return nil, rec.err
	}
	return &rec.Recording, nil
}
