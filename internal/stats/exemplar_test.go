package stats

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram("lat", "latency", 1, 4, 16)
	h.Observe(2) // no exemplar
	h.ObserveEx(3, "aaaabbbbccccddddaaaabbbbccccdddd")
	h.ObserveEx(100, "11112222333344441111222233334444")

	s := h.Snapshot()
	if len(s.Exemplars) != 4 {
		t.Fatalf("exemplars len %d, want 4 (3 bounds + inf)", len(s.Exemplars))
	}
	if s.Exemplars[0].TraceID != "" {
		t.Errorf("bucket 0 has unexpected exemplar %+v", s.Exemplars[0])
	}
	if ex := s.Exemplars[1]; ex.TraceID != "aaaabbbbccccddddaaaabbbbccccdddd" || ex.Value != 3 {
		t.Errorf("bucket 1 exemplar %+v", ex)
	}
	if ex := s.Exemplars[3]; ex.TraceID != "11112222333344441111222233334444" || ex.Value != 100 {
		t.Errorf("+Inf exemplar %+v", ex)
	}

	// Last write wins within a bucket.
	h.ObserveEx(4, "ffffeeeeddddccccffffeeeeddddcccc")
	if ex := h.Snapshot().Exemplars[1]; ex.TraceID != "ffffeeeeddddccccffffeeeeddddcccc" {
		t.Errorf("exemplar not replaced: %+v", ex)
	}
}

// TestTallyFold: a tally reaches its histogram only at Fold, which adds
// its counts and sum once and stamps each filled bucket with the first
// sample since the last fold, leaving a bucket alone that already holds
// an exemplar of the same trace.
func TestTallyFold(t *testing.T) {
	const a, b = "aaaabbbbccccddddaaaabbbbccccdddd", "11112222333344441111222233334444"
	h := NewHistogram("lat", "latency", 1, 4, 16)
	tl := h.Tally()
	for _, v := range []uint64{3, 2, 100, 0} {
		tl.Observe(v)
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("tally reached the histogram before Fold: %+v", s)
	}
	tl.Fold(a)
	tl.Fold(a) // empty: adds nothing, stamps nothing
	s := h.Snapshot()
	if !slices.Equal(s.Counts, []uint64{1, 2, 0, 1}) || s.Sum != 105 || s.Count != 4 {
		t.Fatalf("after Fold: counts %v sum %v count %d", s.Counts, s.Sum, s.Count)
	}
	for i, want := range []float64{0, 3, -1, 100} {
		if ex := s.Exemplars[i]; want < 0 && ex.TraceID != "" || want >= 0 && (ex.TraceID != a || ex.Value != want) {
			t.Errorf("bucket %d exemplar %+v, want value %v", i, ex, want)
		}
	}

	tl.Observe(4)
	tl.Fold(a) // same trace: bucket 1 keeps its exemplar
	if ex := h.Snapshot().Exemplars[1]; ex != s.Exemplars[1] {
		t.Errorf("same-trace fold replaced %+v with %+v", s.Exemplars[1], ex)
	}
	tl.Observe(4)
	tl.Fold(b)
	if ex := h.Snapshot().Exemplars[1]; ex.TraceID != b || ex.Value != 4 {
		t.Errorf("new-trace fold left exemplar %+v", ex)
	}
}

func TestHistogramWithoutExemplarsOmitsSlice(t *testing.T) {
	h := NewHistogram("x", "", 1, 2)
	h.Observe(1)
	h.ObserveEx(2, "") // empty trace ID records no exemplar
	if s := h.Snapshot(); s.Exemplars != nil {
		t.Fatalf("exemplar slice allocated with no exemplars: %+v", s.Exemplars)
	}
}

func TestLatencyHistogram(t *testing.T) {
	h := NewLatencyHistogram("replayd_http_request_seconds", "request latency", 0.01, 0.1, 1)
	h.Observe(5 * time.Millisecond)
	h.ObserveEx(50*time.Millisecond, "aaaabbbbccccddddaaaabbbbccccdddd")
	h.Observe(2 * time.Second)
	h.Observe(-time.Second) // clamped to 0, lands in first bucket

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count %d", s.Count)
	}
	want := []uint64{2, 1, 0, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if math.Abs(s.Sum-2.055) > 1e-9 {
		t.Errorf("sum = %v seconds, want 2.055", s.Sum)
	}
	if ex := s.Exemplars[1]; ex.TraceID == "" || math.Abs(ex.Value-0.05) > 1e-9 {
		t.Errorf("latency exemplar %+v", ex)
	}
}

func TestPromEmitsExemplars(t *testing.T) {
	h := NewLatencyHistogram("replayd_http_request_seconds", "latency", 0.1, 1)
	h.ObserveEx(50*time.Millisecond, "aaaabbbbccccddddaaaabbbbccccdddd")

	var buf bytes.Buffer
	p := NewProm(&buf)
	p.Histogram(h.Snapshot())
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	out := buf.String()
	wantLine := `replayd_http_request_seconds_bucket{le="0.1"} 1 # {trace_id="aaaabbbbccccddddaaaabbbbccccdddd"} 0.05 `
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, wantLine) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no exemplar annotation on bucket line:\n%s", out)
	}
	// Unannotated buckets stay plain.
	if !strings.Contains(out, "replayd_http_request_seconds_bucket{le=\"1\"} 1\n") {
		t.Fatalf("exemplar leaked onto wrong bucket:\n%s", out)
	}
}

func TestParsePromExemplars(t *testing.T) {
	exposition := `# HELP replayd_http_request_seconds latency
# TYPE replayd_http_request_seconds histogram
replayd_http_request_seconds_bucket{le="0.1"} 3 # {trace_id="aaaabbbbccccddddaaaabbbbccccdddd"} 0.05 1722873600.123
replayd_http_request_seconds_bucket{le="1"} 5
replayd_http_request_seconds_bucket{le="+Inf"} 6 # {trace_id="11112222333344441111222233334444"} 4.2
replayd_http_request_seconds_sum 7.5
replayd_http_request_seconds_count 6
`
	fams, err := ParseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("got %d families", len(fams))
	}
	f := fams[0]
	if f.Type != "histogram" || f.Count != 6 || f.Sum != 7.5 {
		t.Fatalf("family mangled: %+v", f)
	}
	if len(f.Buckets) != 3 {
		t.Fatalf("got %d buckets", len(f.Buckets))
	}
	b0 := f.Buckets[0]
	if b0.Exemplar == nil {
		t.Fatal("bucket 0.1 exemplar not parsed")
	}
	if b0.Exemplar.TraceID != "aaaabbbbccccddddaaaabbbbccccdddd" ||
		math.Abs(b0.Exemplar.Value-0.05) > 1e-9 ||
		math.Abs(b0.Exemplar.Ts-1722873600.123) > 1e-6 {
		t.Fatalf("exemplar fields: %+v", b0.Exemplar)
	}
	if b0.Count != 3 {
		t.Fatalf("bucket count corrupted by exemplar suffix: %v", b0.Count)
	}
	if f.Buckets[1].Exemplar != nil {
		t.Fatal("plain bucket grew an exemplar")
	}
	inf := f.Buckets[2]
	if inf.Exemplar == nil || inf.Exemplar.Ts != 0 || inf.Exemplar.Value != 4.2 {
		t.Fatalf("+Inf exemplar (no timestamp form): %+v", inf.Exemplar)
	}
}

func TestParsePromExemplarMalformed(t *testing.T) {
	// Malformed exemplar suffixes degrade to "no exemplar", never to a
	// parse failure or a corrupted bucket count.
	exposition := `h_bucket{le="1"} 2 # not-an-exemplar
h_bucket{le="+Inf"} 3 # {trace_id="x"} notafloat
h_sum 4
h_count 3
`
	fams, err := ParseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || len(fams[0].Buckets) != 2 {
		t.Fatalf("parse degraded wrong: %+v", fams)
	}
	for _, b := range fams[0].Buckets {
		if b.Exemplar != nil {
			t.Fatalf("malformed suffix produced exemplar: %+v", b.Exemplar)
		}
	}
	if fams[0].Buckets[0].Count != 2 || fams[0].Buckets[1].Count != 3 {
		t.Fatalf("bucket counts corrupted: %+v", fams[0].Buckets)
	}
}

func TestRoundTripExemplar(t *testing.T) {
	// What Prom emits, ParseProm reads back — the replayctl -metrics
	// path depends on this closing.
	h := NewLatencyHistogram("rt", "round trip", 0.1, 1)
	h.ObserveEx(300*time.Millisecond, "aaaabbbbccccddddaaaabbbbccccdddd")
	var buf bytes.Buffer
	NewProm(&buf).Histogram(h.Snapshot())

	fams, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got *PromExemplar
	for _, b := range fams[0].Buckets {
		if b.Exemplar != nil {
			got = b.Exemplar
		}
	}
	if got == nil {
		t.Fatal("exemplar lost in round trip")
	}
	if got.TraceID != "aaaabbbbccccddddaaaabbbbccccdddd" || math.Abs(got.Value-0.3) > 1e-9 || got.Ts == 0 {
		t.Fatalf("round-tripped exemplar: %+v", got)
	}
}
