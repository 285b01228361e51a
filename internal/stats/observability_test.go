package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParsePromNoPreamble: regression for replayctl -metrics choking on
// expositions without HELP/TYPE lines — a bare bucket series must still
// assemble into a histogram family by shape alone.
func TestParsePromNoPreamble(t *testing.T) {
	in := `
lat_bucket{le="10"} 1
lat_bucket{le="100"} 3
lat_bucket{le="+Inf"} 5
lat_sum 777
lat_count 5
plain_gauge 42
`
	fams, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	lat, ok := byName["lat"]
	if !ok || lat.Type != "histogram" {
		t.Fatalf("lat not inferred as histogram: %+v", fams)
	}
	if lat.Sum != 777 || lat.Count != 5 {
		t.Errorf("sum/count not attached: %+v", lat)
	}
	if len(lat.Buckets) != 3 || !math.IsInf(lat.Buckets[2].Le, 1) || lat.Buckets[2].Count != 5 {
		t.Errorf("buckets: %+v", lat.Buckets)
	}
	if g := byName["plain_gauge"]; g.Value != 42 {
		t.Errorf("plain sample mangled: %+v", g)
	}
}

// TestParsePromInfAnyPosition: the +Inf bucket and the _sum/_count lines
// may arrive before the finite buckets; assembly must not depend on line
// order.
func TestParsePromInfAnyPosition(t *testing.T) {
	in := `
lat_count 4
lat_bucket{le="+Inf"} 4
lat_sum 60
lat_bucket{le="5"} 1
lat_bucket{le="50"} 3
`
	fams, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("families: %+v", fams)
	}
	f := fams[0]
	if f.Name != "lat" || f.Type != "histogram" || f.Sum != 60 || f.Count != 4 {
		t.Fatalf("family: %+v", f)
	}
	// Buckets must come back sorted by bound with +Inf last.
	if len(f.Buckets) != 3 {
		t.Fatalf("buckets: %+v", f.Buckets)
	}
	if f.Buckets[0].Le != 5 || f.Buckets[1].Le != 50 || !math.IsInf(f.Buckets[2].Le, 1) {
		t.Errorf("bucket order: %+v", f.Buckets)
	}
}

// TestParsePromSummaryShape: a quantile-labeled series with no preamble
// is a summary, and a declared one round-trips through Prom.Summary.
func TestParsePromSummaryShape(t *testing.T) {
	in := `
req{quantile="0.99"} 0.25
req{quantile="0.5"} 0.01
req_sum 12.5
req_count 100
`
	fams, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Type != "summary" {
		t.Fatalf("families: %+v", fams)
	}
	f := fams[0]
	if f.Sum != 12.5 || f.Count != 100 {
		t.Errorf("sum/count: %+v", f)
	}
	if len(f.Quantiles) != 2 || f.Quantiles[0].Q != 0.5 || f.Quantiles[1].V != 0.25 {
		t.Errorf("quantiles (must sort by q): %+v", f.Quantiles)
	}
}

// TestParsePromMalformedSkipped: garbage lines degrade to being skipped,
// never to an error — replayctl must render whatever it can.
func TestParsePromMalformedSkipped(t *testing.T) {
	in := `
this is not a metric
broken{le= 7
ok_metric 1
`
	fams, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == "ok_metric" && f.Value == 1 {
			return
		}
	}
	t.Fatalf("ok_metric lost among garbage: %+v", fams)
}

// TestHistogramBucketEdges: a value exactly on a bucket's inclusive
// upper bound must land in that bucket, deterministically — the scan is
// `f > bounds[i]`, so equality stops it.
func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram("edges", "", 10, 20, 30)
	for _, v := range []uint64{10, 20, 30} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{1, 1, 1, 0} // one per bounded bucket, +Inf empty
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	// One past each bound spills into the next bucket.
	h2 := NewHistogram("past", "", 10, 20, 30)
	for _, v := range []uint64{11, 21, 31} {
		h2.Observe(v)
	}
	if s := h2.Snapshot(); s.Counts[0] != 0 || s.Counts[1] != 1 || s.Counts[2] != 1 || s.Counts[3] != 1 {
		t.Errorf("past-edge counts %v, want [0 1 1 1]", s.Counts)
	}
}

// TestHistogramConcurrentSnapshot exercises Observe racing Snapshot
// under -race: snapshots during load must be internally usable (count
// monotone, never beyond the final total).
func TestHistogramConcurrentSnapshot(t *testing.T) {
	h := NewHistogram("race", "", 10, 100)
	const goroutines, each = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < prev {
				t.Error("snapshot count went backwards")
				return
			}
			prev = s.Count
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < each; i++ {
				h.Observe((seed*each + i) % 300)
			}
		}(uint64(g))
	}
	// Wait for the observers, then stop the snapshotter.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if s := h.Snapshot(); s.Count == goroutines*each {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	s := h.Snapshot()
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != goroutines*each || s.Count != goroutines*each {
		t.Errorf("final counts %d/%d, want %d", bucketTotal, s.Count, goroutines*each)
	}
}

// TestReadRuntime: the snapshot must report a live process — nonzero
// heap and at least one goroutine — and render as prefixed gauges.
func TestReadRuntime(t *testing.T) {
	s := ReadRuntime()
	if s.HeapObjectsBytes <= 0 || s.TotalBytes <= 0 {
		t.Errorf("memory gauges empty: %+v", s)
	}
	if s.Goroutines < 1 {
		t.Errorf("goroutines = %v", s.Goroutines)
	}

	var sb strings.Builder
	p := NewProm(&sb)
	p.Runtime("testd", s)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"testd_go_heap_objects_bytes",
		"testd_go_memory_total_bytes",
		"testd_go_goroutines",
		"testd_go_gc_cycles_total",
		"testd_go_gc_pause_seconds_p50",
		"testd_go_sched_latency_seconds_p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Runtime exposition missing %q", want)
		}
	}
	// And it parses back with the tolerant parser.
	if _, err := ParseProm(strings.NewReader(out)); err != nil {
		t.Errorf("runtime gauges unparseable: %v", err)
	}
}
