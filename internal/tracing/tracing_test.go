package tracing

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tp := Traceparent{Trace: NewTraceID(), Span: NewSpanID(), Flags: FlagSampled}
	s := tp.String()
	got, err := ParseTraceparent(s)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", s, err)
	}
	if got != tp {
		t.Fatalf("round trip: got %+v want %+v", got, tp)
	}
	if !got.Sampled() {
		t.Fatalf("sampled flag lost in %q", s)
	}
}

func TestTraceparentValid(t *testing.T) {
	const v = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tp, err := ParseTraceparent(v)
	if err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	if tp.Trace.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id mangled: %s", tp.Trace)
	}
	if tp.Span.String() != "b7ad6b7169203331" {
		t.Fatalf("span id mangled: %s", tp.Span)
	}
	// Surrounding whitespace is tolerated.
	if _, err := ParseTraceparent("  " + v + "\t"); err != nil {
		t.Fatalf("whitespace-padded header rejected: %v", err)
	}
}

// traceparentRejects are malformed headers ParseTraceparent must refuse.
var traceparentRejects = func() []struct{ name, in string } {
	tid := "0af7651916cd43dd8448eb211c80319c"
	sid := "b7ad6b7169203331"
	return []struct{ name, in string }{
		{"empty", ""},
		{"too few fields", "00-" + tid + "-" + sid},
		{"too many fields", "00-" + tid + "-" + sid + "-01-extra"},
		{"bad version hex", "zz-" + tid + "-" + sid + "-01"},
		{"version ff", "ff-" + tid + "-" + sid + "-01"},
		{"future version", "01-" + tid + "-" + sid + "-01"},
		{"short trace id", "00-" + tid[:30] + "-" + sid + "-01"},
		{"long trace id", "00-" + tid + "ab-" + sid + "-01"},
		{"non-hex trace id", "00-" + strings.Repeat("g", 32) + "-" + sid + "-01"},
		{"uppercase trace id", "00-" + strings.ToUpper(tid) + "-" + sid + "-01"},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-" + sid + "-01"},
		{"short span id", "00-" + tid + "-" + sid[:14] + "-01"},
		{"all-zero span id", "00-" + tid + "-" + strings.Repeat("0", 16) + "-01"},
		{"short flags", "00-" + tid + "-" + sid + "-1"},
		{"non-hex flags", "00-" + tid + "-" + sid + "-xy"},
	}
}()

func TestTraceparentRejects(t *testing.T) {
	for _, c := range traceparentRejects {
		if _, err := ParseTraceparent(c.in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", c.name, c.in)
		}
	}
}

// FuzzTraceparent: whatever the header, an accepted one renders
// through String to a header that parses back to the same Traceparent.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("  00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00\t")
	for _, c := range traceparentRejects {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		back, err := ParseTraceparent(tp.String())
		if err != nil {
			t.Fatalf("ParseTraceparent(%q) accepted, but its String %q fails: %v", s, tp, err)
		}
		if back != tp {
			t.Fatalf("ParseTraceparent(%q) = %+v, String round trip gives %+v", s, tp, back)
		}
	})
}

func TestParseTraceID(t *testing.T) {
	id := NewTraceID()
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("ParseTraceID(%s) = %v, %v", id, got, err)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("x", 32)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted, want error", bad)
		}
	}
}

func TestSpanAssembly(t *testing.T) {
	store := NewStore(StoreConfig{})
	tr := NewTracer(store)

	ctx, root := tr.StartRoot(context.Background(), "POST /v1/run", nil)
	if root == nil {
		t.Fatal("StartRoot returned nil span on enabled tracer")
	}
	root.SetAttr("experiment", "fig6")

	ctx2, child := Start(ctx, "sim.run")
	child.SetAttr("workload", "gzip")
	_, grand := Start(ctx2, "pipeline.run")
	grand.End()
	child.End()

	if store.Len() != 0 {
		t.Fatalf("trace stored before root ended")
	}
	root.End()
	root.End() // idempotent

	if store.Len() != 1 {
		t.Fatalf("store has %d traces, want 1", store.Len())
	}
	st := store.Get(root.TraceID().String())
	if st == nil {
		t.Fatal("stored trace not fetchable by ID")
	}
	if st.Root != "POST /v1/run" {
		t.Fatalf("root name %q", st.Root)
	}
	if len(st.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(st.Spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range st.Spans {
		byName[sp.Name] = sp
	}
	if byName["sim.run"].Parent != byName["POST /v1/run"].SpanID {
		t.Fatalf("sim.run parent = %q, want root %q", byName["sim.run"].Parent, byName["POST /v1/run"].SpanID)
	}
	if byName["pipeline.run"].Parent != byName["sim.run"].SpanID {
		t.Fatalf("pipeline.run parent = %q, want %q", byName["pipeline.run"].Parent, byName["sim.run"].SpanID)
	}
	if byName["sim.run"].Attrs["workload"] != "gzip" {
		t.Fatalf("attrs lost: %+v", byName["sim.run"].Attrs)
	}
	if tr.ActiveTraces() != 0 {
		t.Fatalf("%d traces still active after finalize", tr.ActiveTraces())
	}
}

func TestTraceContinuesRemoteParent(t *testing.T) {
	store := NewStore(StoreConfig{})
	tr := NewTracer(store)
	tp := Traceparent{Trace: NewTraceID(), Span: NewSpanID(), Flags: FlagSampled}

	_, root := tr.StartRoot(context.Background(), "POST /v1/run", &tp)
	if root.TraceID() != tp.Trace {
		t.Fatalf("trace id %s, want client's %s", root.TraceID(), tp.Trace)
	}
	root.End()

	st := store.Get(tp.Trace.String())
	if st == nil {
		t.Fatal("trace not stored under the client's trace id")
	}
	if st.Spans[0].Parent != tp.Span.String() {
		t.Fatalf("root parent %q, want remote span %q", st.Spans[0].Parent, tp.Span)
	}
}

func TestAsyncChildOutlivesRoot(t *testing.T) {
	// /v1/jobs: the HTTP root span ends at 202, the job span later.
	store := NewStore(StoreConfig{})
	tr := NewTracer(store)
	ctx, root := tr.StartRoot(context.Background(), "POST /v1/jobs", nil)
	_, job := Start(ctx, "job")
	root.End()
	if store.Len() != 0 {
		t.Fatal("trace finalized while job span still open")
	}
	job.End()
	if store.Len() != 1 {
		t.Fatal("trace not finalized after last span ended")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartRoot(context.Background(), "x", nil)
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every Span method must be a safe no-op on nil.
	s.SetAttr("k", 1)
	s.SetError(errors.New("boom"))
	s.AddLink(TraceID{}, SpanID{})
	s.EmitChild("c", time.Now(), time.Now(), nil)
	s.End()
	_ = s.TraceID()
	_ = s.SpanID()
	_ = s.Traceparent()
	if _, c := Start(ctx, "child"); c != nil {
		t.Fatal("Start produced a span without an active parent")
	}
	var st *Store
	st.offer(nil)
	if st.Get("x") != nil || st.List(5) != nil || st.Len() != 0 {
		t.Fatal("nil store not inert")
	}
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.SetEnabled(true)
}

func TestDisabledTracerRefusesRoots(t *testing.T) {
	tr := NewTracer(NewStore(StoreConfig{}))
	tr.SetEnabled(false)
	_, s := tr.StartRoot(context.Background(), "x", nil)
	if s != nil {
		t.Fatal("disabled tracer produced a span")
	}
}

func TestTailSamplerRetainsErrorAndSlow(t *testing.T) {
	// Soak: with SampleRate 0 nothing ordinary survives, but every
	// error trace and every slow trace must be retained.
	store := NewStore(StoreConfig{
		Capacity:      4096,
		SlowThreshold: 50 * time.Millisecond,
		SampleRate:    -1, // negative: gate always fails, distinct from 0="default"
		Rand:          func() float64 { return 0.5 },
	})
	tr := NewTracer(store)

	const n = 500
	base := time.Now()
	for i := 0; i < n; i++ {
		_, root := tr.StartRoot(context.Background(), "req", nil)
		switch i % 3 {
		case 0: // error trace
			root.SetError(fmt.Errorf("boom %d", i))
			root.End()
		case 1: // slow trace: synthesize the duration
			root.mu.Lock()
			root.data.Start = base.Add(-100 * time.Millisecond)
			root.buf.start = root.data.Start
			root.mu.Unlock()
			root.End()
		default: // fast, clean: must be dropped at rate 0
			root.End()
		}
	}
	st := store.Stats()
	wantErr := uint64((n + 2) / 3)
	wantSlow := uint64((n + 1) / 3)
	if st.KeptError != wantErr {
		t.Errorf("kept %d error traces, want %d (must retain 100%%)", st.KeptError, wantErr)
	}
	if st.KeptSlow != wantSlow {
		t.Errorf("kept %d slow traces, want %d (must retain 100%%)", st.KeptSlow, wantSlow)
	}
	if st.KeptSample != 0 {
		t.Errorf("kept %d ordinary traces at sample rate 0", st.KeptSample)
	}
	if st.Dropped != uint64(n)-wantErr-wantSlow {
		t.Errorf("dropped %d, want %d", st.Dropped, uint64(n)-wantErr-wantSlow)
	}
	for _, sum := range store.List(0) {
		if sum.Reason != "error" && sum.Reason != "slow" {
			t.Fatalf("retained trace with reason %q at sample rate 0", sum.Reason)
		}
	}
}

func TestStoreEviction(t *testing.T) {
	store := NewStore(StoreConfig{Capacity: 3})
	tr := NewTracer(store)
	var ids []string
	for i := 0; i < 5; i++ {
		_, root := tr.StartRoot(context.Background(), "req", nil)
		ids = append(ids, root.TraceID().String())
		root.End()
	}
	if store.Len() != 3 {
		t.Fatalf("store len %d, want capacity 3", store.Len())
	}
	if store.Get(ids[0]) != nil || store.Get(ids[1]) != nil {
		t.Fatal("oldest traces not evicted")
	}
	if store.Get(ids[4]) == nil {
		t.Fatal("newest trace evicted")
	}
	if st := store.Stats(); st.Evicted != 2 {
		t.Fatalf("evicted %d, want 2", st.Evicted)
	}
	// List is newest-first.
	l := store.List(2)
	if len(l) != 2 || l[0].TraceID != ids[4] || l[1].TraceID != ids[3] {
		t.Fatalf("List order wrong: %+v", l)
	}
}

func TestLinksAndEmitChild(t *testing.T) {
	store := NewStore(StoreConfig{})
	tr := NewTracer(store)
	other := NewTraceID()

	_, root := tr.StartRoot(context.Background(), "req", nil)
	root.AddLink(other, SpanID{})
	now := time.Now()
	root.EmitChild("opt.dce", now.Add(-2*time.Millisecond), now, map[string]any{"killed": 7})
	root.End()

	st := store.Get(root.TraceID().String())
	if len(st.Spans) != 2 {
		t.Fatalf("got %d spans, want root + emitted child", len(st.Spans))
	}
	var rootSp, childSp *SpanData
	for i := range st.Spans {
		if st.Spans[i].Name == "req" {
			rootSp = &st.Spans[i]
		} else {
			childSp = &st.Spans[i]
		}
	}
	if len(rootSp.Links) != 1 || rootSp.Links[0].TraceID != other.String() {
		t.Fatalf("link lost: %+v", rootSp.Links)
	}
	if childSp.Name != "opt.dce" || childSp.Parent != rootSp.SpanID {
		t.Fatalf("emitted child wrong: %+v", childSp)
	}
	if childSp.Attrs["killed"] != 7 {
		t.Fatalf("emitted child attrs: %+v", childSp.Attrs)
	}
}

func TestErrorPropagatesToTrace(t *testing.T) {
	store := NewStore(StoreConfig{SampleRate: -1, Rand: func() float64 { return 1 }})
	tr := NewTracer(store)
	ctx, root := tr.StartRoot(context.Background(), "req", nil)
	_, child := Start(ctx, "work")
	child.SetError(errors.New("exec failed"))
	child.End()
	root.End()
	st := store.Get(root.TraceID().String())
	if st == nil {
		t.Fatal("errored trace dropped by sampler")
	}
	if !st.Error || st.Reason != "error" {
		t.Fatalf("error flag lost: error=%v reason=%q", st.Error, st.Reason)
	}
}

func TestWriteText(t *testing.T) {
	store := NewStore(StoreConfig{})
	tr := NewTracer(store)
	ctx, root := tr.StartRoot(context.Background(), "POST /v1/run", nil)
	_, sim := Start(ctx, "sim.run")
	sim.End()
	root.End()

	st := store.Get(root.TraceID().String())
	var buf bytes.Buffer
	if err := st.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{st.TraceID, "POST /v1/run", "sim.run", "█"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text view missing %q:\n%s", want, out)
		}
	}
	// Child is indented under the root.
	lines := strings.Split(out, "\n")
	var rootLine, simLine string
	for _, l := range lines {
		if strings.Contains(l, "POST /v1/run") {
			rootLine = l
		}
		if strings.Contains(l, "sim.run") {
			simLine = l
		}
	}
	// Rune index: the bar glyphs are multi-byte, so byte offsets lie.
	runeIdx := func(s, sub string) int {
		return len([]rune(s[:strings.Index(s, sub)]))
	}
	rootIdx := runeIdx(rootLine, "POST /v1/run")
	simIdx := runeIdx(simLine, "sim.run")
	if simIdx <= rootIdx {
		t.Fatalf("child not indented under root:\n%s", out)
	}
}

func TestConcurrentSpans(t *testing.T) {
	store := NewStore(StoreConfig{Capacity: 64})
	tr := NewTracer(store)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, root := tr.StartRoot(context.Background(), "req", nil)
			var cwg sync.WaitGroup
			for j := 0; j < 4; j++ {
				cwg.Add(1)
				go func(j int) {
					defer cwg.Done()
					_, c := Start(ctx, fmt.Sprintf("work-%d", j))
					c.SetAttr("j", j)
					c.End()
				}(j)
			}
			cwg.Wait()
			root.End()
		}()
	}
	wg.Wait()
	if store.Len() != 16 {
		t.Fatalf("store has %d traces, want 16", store.Len())
	}
	for _, sum := range store.List(0) {
		if sum.Spans != 5 {
			t.Fatalf("trace %s has %d spans, want 5", sum.TraceID, sum.Spans)
		}
	}
}

func TestActiveTraceBound(t *testing.T) {
	tr := NewTracer(NewStore(StoreConfig{}))
	tr.maxActive = 2
	_, a := tr.StartRoot(context.Background(), "a", nil)
	_, b := tr.StartRoot(context.Background(), "b", nil)
	_, c := tr.StartRoot(context.Background(), "c", nil)
	if a == nil || b == nil {
		t.Fatal("spans under the bound refused")
	}
	if c != nil {
		t.Fatal("span over maxActive accepted")
	}
	a.End()
	if _, d := tr.StartRoot(context.Background(), "d", nil); d == nil {
		t.Fatal("slot not reclaimed after finalize")
	} else {
		d.End()
	}
	b.End()
}
