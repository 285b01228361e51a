package stats

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Exemplar links one recent observation in a histogram bucket to the
// trace that produced it, per the OpenMetrics exemplar model: a latency
// spike visible in /metrics resolves to a stored trace in one hop.
type Exemplar struct {
	TraceID string
	Value   float64
	Ts      time.Time
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe
// calls. Bucket upper bounds are set at construction and never change,
// so the hot path is a binary search plus one atomic increment; there
// is no locking anywhere. Values are unsigned integers (cycles, uop
// counts) because that is what the simulator produces; the Prometheus
// exposition converts to float64 at render time.
//
// Each bucket additionally holds the exemplar of its most recent
// ObserveEx observation (last-write-wins via an atomic pointer).
type Histogram struct {
	name      string
	help      string
	bounds    []float64 // inclusive upper bounds, strictly increasing
	counts    []atomic.Uint64
	exemplars []atomic.Pointer[Exemplar]
	sum       atomic.Uint64
	total     atomic.Uint64
}

// NewHistogram returns a histogram with the given inclusive upper
// bounds, which must be strictly increasing. An implicit +Inf bucket
// catches everything above the last bound.
func NewHistogram(name, help string, bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram %q bounds not increasing: %v", name, bounds))
		}
	}
	return &Histogram{
		name:      name,
		help:      help,
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Name returns the metric name given at construction.
func (h *Histogram) Name() string { return h.name }

// Observe records one sample.
func (h *Histogram) Observe(v uint64) { h.ObserveEx(v, "") }

// ObserveEx records one sample and, when traceID is non-empty, stamps
// the bucket's exemplar with it. A bucket already holding an exemplar
// from the same trace is left alone — repeated samples from one request
// then pay one pointer load instead of an allocation each, while a new
// trace still replaces a stale exemplar. Per-event sites on a hot path
// count into a Tally instead.
func (h *Histogram) ObserveEx(v uint64, traceID string) { h.observe(float64(v), v, traceID) }

// observe counts value f in its bucket, adds sum to the running sum and
// stamps the bucket's exemplar with f. The two differ only for
// LatencyHistogram, which buckets seconds but sums nanoseconds.
func (h *Histogram) observe(f float64, sum uint64, traceID string) {
	i := h.bucket(f)
	h.counts[i].Add(1)
	h.sum.Add(sum)
	h.total.Add(1)
	if traceID != "" {
		if old := h.exemplars[i].Load(); old == nil || old.TraceID != traceID {
			h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: f, Ts: time.Now()})
		}
	}
}

// Tally counts samples bound for one Histogram on a single goroutine,
// with plain adds, and Fold adds them into the histogram in one batch.
// A producer that observes on every simulated event keeps one Tally per
// run, so concurrent runs stop contending on the histogram's shared
// counters; the histogram sees the run's samples when it folds.
type Tally struct {
	h      *Histogram
	counts []uint64
	first  []uint64 // each bucket's first sample since the last Fold
	sum    uint64
}

// Tally returns an empty tally over h's buckets.
func (h *Histogram) Tally() *Tally {
	return &Tally{h: h, counts: make([]uint64, len(h.counts)), first: make([]uint64, len(h.counts))}
}

// Observe counts one sample.
func (t *Tally) Observe(v uint64) {
	i := t.h.bucket(float64(v))
	if t.counts[i] == 0 {
		t.first[i] = v
	}
	t.counts[i]++
	t.sum += v
}

// Fold adds the tally into its histogram and empties it, so a second
// Fold adds nothing. With a non-empty traceID every bucket the tally
// filled gets an exemplar, as ObserveEx would give it: the bucket's
// first sample since the last Fold, stamped with the fold time, unless
// the bucket already holds one from this trace.
func (t *Tally) Fold(traceID string) {
	var total uint64
	var now time.Time
	for i, n := range t.counts {
		if n == 0 {
			continue
		}
		t.h.counts[i].Add(n)
		total += n
		if traceID != "" {
			if old := t.h.exemplars[i].Load(); old == nil || old.TraceID != traceID {
				if now.IsZero() {
					now = time.Now()
				}
				t.h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: float64(t.first[i]), Ts: now})
			}
		}
		t.counts[i] = 0
	}
	if total > 0 {
		t.h.sum.Add(t.sum)
		t.h.total.Add(total)
	}
	t.sum = 0
}

func (h *Histogram) bucket(f float64) int {
	// Bucket count is small (≲16); a linear scan beats binary search on
	// branch prediction and is simpler.
	i := 0
	for i < len(h.bounds) && f > h.bounds[i] {
		i++
	}
	return i
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Counts are per-bucket (not cumulative); Counts[len(Bounds)] is the
// +Inf bucket. Exemplars is aligned with Counts; an entry with an empty
// TraceID means the bucket has none. The copy is not atomic across
// buckets — concurrent Observe calls may land between bucket reads —
// which is fine for monitoring output.
type HistogramSnapshot struct {
	Name      string
	Help      string
	Bounds    []float64
	Counts    []uint64
	Exemplars []Exemplar
	Sum       float64
	Count     uint64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   h.name,
		Help:   h.help,
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    float64(h.sum.Load()),
		Count:  h.total.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		if e := h.exemplars[i].Load(); e != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]Exemplar, len(h.counts))
			}
			s.Exemplars[i] = *e
		}
	}
	return s
}

// Mean returns the average of all observed samples, or 0 if empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// LatencyHistogram is Histogram's wall-clock adapter: observations are
// durations, bucket bounds, exemplar values and the exported sum are in
// seconds (the Prometheus convention for *_seconds metrics). The sum
// accumulates nanoseconds so the hot path stays integer-atomic.
type LatencyHistogram struct{ h *Histogram }

// DefaultLatencyBounds covers the service-latency range replayd sees:
// 1ms through 60s, roughly geometric.
var DefaultLatencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// NewLatencyHistogram returns a duration histogram with the given
// inclusive upper bounds in seconds (strictly increasing; +Inf bucket
// implicit).
func NewLatencyHistogram(name, help string, bounds ...float64) *LatencyHistogram {
	return &LatencyHistogram{NewHistogram(name, help, bounds...)}
}

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) { h.ObserveEx(d, "") }

// ObserveEx records one duration and, when traceID is non-empty,
// stamps the bucket's exemplar with it.
func (h *LatencyHistogram) ObserveEx(d time.Duration, traceID string) {
	d = max(d, 0)
	h.h.observe(d.Seconds(), uint64(d), traceID)
}

// Snapshot copies the current state; Sum is in seconds.
func (h *LatencyHistogram) Snapshot() HistogramSnapshot {
	s := h.h.Snapshot()
	s.Sum /= 1e9
	return s
}
