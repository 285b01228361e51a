package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/frame"
	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/workload"
)

var allModes = []pipeline.Mode{
	pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt,
}

// TestCachedRunsBitIdentical: with capture+memo enabled, every mode's
// statistics must equal the uncached (live-interpreted) run's exactly —
// the caching layer is a pure wall-time optimization.
func TestCachedRunsBitIdentical(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	p, err := workload.ByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes {
		cold, err := RunWorkload(context.Background(), p, mode, Options{MaxInsts: 20_000, DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := RunWorkload(context.Background(), p, mode, Options{MaxInsts: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Stats, cached.Stats) {
			t.Errorf("%v: cached stats differ from live run:\n live %+v\ncache %+v",
				mode, cold.Stats, cached.Stats)
		}
		// A repeat must hit the memo and still agree.
		memoed, err := RunWorkload(context.Background(), p, mode, Options{MaxInsts: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached.Stats, memoed.Stats) {
			t.Errorf("%v: memoized stats differ", mode)
		}
	}
}

// TestMemoKeyedByConfig: a config edit must miss the memo and produce a
// different result, while the unmodified run still hits it.
func TestMemoKeyedByConfig(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	p, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, Options{MaxInsts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	small, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, Options{
		MaxInsts:  20_000,
		ConfigMod: func(c *pipeline.Config) { c.FrameCfg.MaxUOps = 16 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base.Stats, small.Stats) {
		t.Error("config edit returned the memoized baseline result")
	}
}

// TestCaptureSharedAcrossModes: the four modes of a workload, at three
// budgets asked largest first, interpret each trace's slot stream
// exactly once and leave one recording per trace.
func TestCaptureSharedAcrossModes(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	p, err := workload.ByName("excel")
	if err != nil {
		t.Fatal(err)
	}
	builds := SnapshotMetrics().CaptureBuilds
	for _, budget := range []int{12_000, 8_000, 4_000} {
		for _, mode := range allModes {
			if _, err := RunWorkload(context.Background(), p, mode, Options{MaxInsts: budget}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, _, _, _ := CaptureOccupancy(); n != p.Traces {
		t.Errorf("capture cache holds %d entries after 4 modes x 3 budgets of %d traces, want %d", n, p.Traces, p.Traces)
	}
	if got := SnapshotMetrics().CaptureBuilds - builds; got != uint64(p.Traces) {
		t.Errorf("%d capture builds for %d traces, want one per trace", got, p.Traces)
	}
}

// TestCapturePrefixEquivalence: one recording per (profile, trace)
// serves a shrink-then-grow sequence of budgets. In every mode, each
// budget's stats equal the live interpreter's and those of a fresh
// recording of exactly that budget plus the slack, and only the budgets
// the current recording does not cover interpret again.
func TestCapturePrefixEquivalence(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	ctx := context.Background()
	// The last budget lies inside the slack of the 40k recording, so it
	// must grow it.
	budgets := []int{30_000, 10_000, 40_000, 20_000, 41_000}
	for _, name := range []string{"gzip", "excel"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]*workload.Program, p.Traces)
		for i := range progs {
			if progs[i], err = workload.Generate(p, i); err != nil {
				t.Fatal(err)
			}
		}
		// exact replays a new exact-budget recording of each trace,
		// bypassing the capture cache and the run memo.
		exact := source{name: p.Name, class: p.Class, traces: p.Traces, budget: p.XInsts,
			stream: func(tr, budget int, _ bool) (slotSource, error) {
				return &replayStream{rec: captureRecorded(progs[tr], budget+captureSlack)}, nil
			}}
		builds := SnapshotMetrics().CaptureBuilds
		for _, budget := range budgets {
			for _, mode := range allModes {
				cached, err := RunWorkload(ctx, p, mode, Options{MaxInsts: budget})
				if err != nil {
					t.Fatal(err)
				}
				live, err := RunWorkload(ctx, p, mode, Options{MaxInsts: budget, DisableCache: true})
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := run(ctx, exact, mode, Options{MaxInsts: budget})
				if err != nil {
					t.Fatal(err)
				}
				if cached.Stats != live.Stats || cached.Stats != fresh.Stats {
					t.Errorf("%s/%v at %d: cached stats differ:\ncached %+v\n  live %+v\n fresh %+v",
						name, mode, budget, cached.Stats, live.Stats, fresh.Stats)
				}
			}
		}
		// 30k, 40k and 41k record every trace; 10k and 20k replay prefixes.
		if got, want := SnapshotMetrics().CaptureBuilds-builds, uint64(3*p.Traces); got != want {
			t.Errorf("%s: %d capture builds over budgets %v, want %d", name, got, budgets, want)
		}
	}
}

// TestCaptureConcurrentGrowth: requests for random budgets on one
// (profile, trace) race with the growths they cause. Every run must
// equal the live run at its budget, and afterwards the cache's charged
// bytes must equal the live entries' sizes.
func TestCaptureConcurrentGrowth(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	ctx := context.Background()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{1_000, 3_000, 5_000, 7_000, 9_000}
	want := make(map[int]pipeline.Stats, len(budgets))
	for _, b := range budgets {
		res, err := RunWorkload(ctx, p, pipeline.ModeRePLayOpt, Options{MaxInsts: b, DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		want[b] = res.Stats
	}
	// Racing requests for a budget nothing covers interpret once. The
	// recording then holds the smallest budget, so larger ones grow it.
	builds := SnapshotMetrics().CaptureBuilds
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := captures.get(p, 0, budgets[0]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := SnapshotMetrics().CaptureBuilds - builds; got != 1 {
		t.Fatalf("4 racing requests for one budget made %d capture builds, want 1", got)
	}
	builds++
	// Without a memo identity every request reaches the capture cache.
	src := profileSource(p)
	src.memoID = inputID{}
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 1))
			for range 5 {
				b := budgets[rng.IntN(len(budgets))]
				res, err := run(ctx, src, pipeline.ModeRePLayOpt, Options{MaxInsts: b})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Stats != want[b] {
					t.Errorf("goroutine %d, budget %d: stats differ from the live run", g, b)
				}
			}
		}()
	}
	wg.Wait()
	if SnapshotMetrics().CaptureBuilds == builds {
		t.Error("no request grew the recording")
	}
	checkCaptureResidency(t)
}

// checkCaptureResidency fails t unless the capture cache's charged
// bytes equal the sum of its entries' recording sizes, uploads' included.
func checkCaptureResidency(t *testing.T) {
	t.Helper()
	captures.mu.Lock()
	var sum int64
	for el := captures.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*captureEntry)
		if rec := e.rec.Load(); rec != nil {
			sum += rec.SizeBytes()
		}
		if ext := e.ext.Load(); ext != nil {
			sum += ext.Recording.SizeBytes()
		}
	}
	captures.mu.Unlock()
	if _, bytes, _, _ := CaptureOccupancy(); bytes != sum {
		t.Errorf("capture cache charges %d bytes, its entries hold %d", bytes, sum)
	}
}

// TestCaptureCacheBounded: occupancy never exceeds DefaultCaptureEntries,
// and a growth that pushes the cache past its byte budget evicts the
// least recently used entry, not the one it grew.
func TestCaptureCacheBounded(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	for i, name := range []string{"bzip2", "crafty", "eon", "gzip", "parser", "twolf", "vortex", "access"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Traces = 1
		if _, err := RunWorkload(context.Background(), p, pipeline.ModeICache, Options{MaxInsts: 2_000}); err != nil {
			t.Fatal(err)
		}
		if n, _, _, _ := CaptureOccupancy(); n > DefaultCaptureEntries {
			t.Fatalf("after %d workloads: %d live captures > bound %d", i+1, n, DefaultCaptureEntries)
		}
	}

	ResetCaches()
	_, _, entryLimit, byteLimit := CaptureOccupancy()
	t.Cleanup(func() { SetCaptureLimits(entryLimit, byteLimit) })
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	bzip2, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	get := func(p workload.Profile, budget int) *recordedStream {
		rec, err := captures.get(p, 0, budget)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	small := get(gzip, 2_000)
	other := get(bzip2, 2_000)
	SetCaptureLimits(0, small.SizeBytes()+other.SizeBytes()+1)
	grown := get(gzip, 50_000) // gzip is now the most recent: bzip2 goes
	if grown == small {
		t.Fatal("a 50k request was served by the 2k recording")
	}
	if n, bytes, _, _ := CaptureOccupancy(); n != 1 || bytes != grown.SizeBytes() {
		t.Errorf("after the growth: %d entries, %d bytes; want 1 entry, the grown recording's %d bytes",
			n, bytes, grown.SizeBytes())
	}
	if get(gzip, 40_000) != grown {
		t.Error("a 40k request was not served by the surviving 50k recording")
	}
	checkCaptureResidency(t)
}

// TestCaptureLRUOrder: the capture cache evicts the least recently used
// entry first, and a hit refreshes an entry's recency.
func TestCaptureLRUOrder(t *testing.T) {
	ResetCaches()
	_, _, entryLimit, byteLimit := CaptureOccupancy()
	t.Cleanup(func() {
		SetCaptureLimits(entryLimit, byteLimit)
		ResetCaches()
	})
	SetCaptureLimits(2, 0)
	var ps []workload.Profile
	for _, name := range []string{"gzip", "bzip2", "crafty"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, i := range []int{0, 1, 0, 2} { // the hit on gzip leaves bzip2 least recent
		if _, err := captures.get(ps[i], 0, 1_000); err != nil {
			t.Fatal(err)
		}
	}
	captures.mu.Lock()
	defer captures.mu.Unlock()
	var got []string
	for el := captures.lru.Front(); el != nil; el = el.Next() {
		got = append(got, el.Value.(*captureEntry).key.profile.Name)
	}
	if want := []string{"crafty", "gzip"}; !reflect.DeepEqual(got, want) {
		t.Errorf("capture recency %v, want %v", got, want)
	}
}

// TestCaptureExternal: racing lookups of one upload adapt it once and
// share its run, the cache charges the run's recording, and once the
// upload's entry is evicted the next lookup adapts it again.
func TestCaptureExternal(t *testing.T) {
	ResetCaches()
	t.Cleanup(func() {
		SetCaptureLimits(DefaultCaptureEntries, DefaultCaptureBytes)
		ResetCaches()
	})
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Capture(prog, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	var adapts atomic.Int32
	adapt := func() (*ExternalRun, error) {
		adapts.Add(1)
		return &ExternalRun{Name: "upload", Fingerprint: "upload-id", Recording: rec}, nil
	}
	runs := make([]*ExternalRun, 4)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], _ = CachedExternal("upload-id", adapt)
		}()
	}
	wg.Wait()
	if n := adapts.Load(); n != 1 || runs[0] == nil || runs[1] != runs[0] || runs[2] != runs[0] || runs[3] != runs[0] {
		t.Fatalf("4 racing lookups adapted %d times, runs %v; want 1 adaptation and one shared run", n, runs)
	}
	if _, bytes, _, _ := CaptureOccupancy(); bytes != rec.SizeBytes() {
		t.Errorf("capture cache charges %d bytes for the upload, its recording holds %d", bytes, rec.SizeBytes())
	}
	checkCaptureResidency(t)

	SetCaptureLimits(1, 0)
	if _, err := captures.get(p, 0, 1_000); err != nil {
		t.Fatal(err)
	}
	if _, err := CachedExternal("upload-id", adapt); err != nil || adapts.Load() != 2 {
		t.Errorf("lookup after eviction: error %v, %d adaptations in all; want 2", err, adapts.Load())
	}
	checkCaptureResidency(t)
}

// TestCaptureSlots: Capture records slot for slot what the interpreter
// stream yields, ends where the program halts, and returns the
// interpreter's error only when the fault lies inside the window.
func TestCaptureSlots(t *testing.T) {
	const iters = 100
	const faultAt = 1 + 2*iters + 1 // slots retired before the div faults
	for _, c := range []struct {
		name    string
		prog    *workload.Program
		n, want int
		fails   bool
	}{
		{"fault-outside", loopProgram(iters, tailFault...), faultAt, faultAt, false},
		{"fault-inside", loopProgram(iters, tailFault...), faultAt + 1, 0, true},
		{"halt", loopProgram(iters, tailHalt...), 10 * faultAt, faultAt - 1, false}, // hlt does not retire
	} {
		rec, err := Capture(c.prog, c.n)
		if c.fails {
			if err == nil {
				t.Errorf("%s: %d slots and no error; want the interpreter's error", c.name, rec.Len())
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: error %v; want %d slots", c.name, err, c.want)
			continue
		}
		if rec.Len() != c.want {
			t.Errorf("%s: %d slots, want %d", c.name, rec.Len(), c.want)
			continue
		}
		got := &replayStream{rec: &recordedStream{Recording: *rec}}
		src := newCPUStream(c.prog)
		var slot, want pipeline.Rec
		for i := range rec.Len() {
			if !got.NextInto(&slot) || !src.NextInto(&want) || !reflect.DeepEqual(slot, want) {
				t.Fatalf("%s: slot %d = %+v, interpreter gives %+v", c.name, i, slot, want)
			}
		}
	}
}

// TestCollectFramesMatchFeedTrace: frames constructed from the capture
// equal the frames frame.FeedTrace builds from the interpreter's full
// trace, on trace 0 of every profile, so benchmarks over either path
// see the production decode.
func TestCollectFramesMatchFeedTrace(t *testing.T) {
	const insts = 30_000
	for _, p := range workload.Profiles {
		got, err := CollectFrames(p, insts, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.Generate(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := prog.Capture(insts)
		if err != nil {
			t.Fatal(err)
		}
		var want []*frame.Frame
		cons := frame.NewConstructor(frame.DefaultConfig(), func(f *frame.Frame) { want = append(want, f) })
		if err := frame.FeedTrace(cons, tr); err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no frames", p.Name)
		}
		for _, f := range append(got, want...) {
			nilEmptySlices(f)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d frames from the capture differ from FeedTrace's %d", p.Name, len(got), len(want))
		}
	}
}

// nilEmptySlices sets the frame's empty slices to nil. A frame reused
// from the frame pool keeps empty slices where a new one has nil ones,
// and which frames the pool hands out varies from run to run.
func nilEmptySlices(f *frame.Frame) {
	v := reflect.ValueOf(f).Elem()
	for i := 0; i < v.NumField(); i++ {
		if fv := v.Field(i); fv.Kind() == reflect.Slice && fv.Len() == 0 {
			fv.Set(reflect.Zero(fv.Type()))
		}
	}
}

// slotStream is a Next-only pipeline.Stream over a recording: it builds
// each Slot the way a stream outside sim does, so the engine reads it
// through its adapter's own decode table.
type slotStream struct {
	rec *translate.Recording
	pos int
}

func (s *slotStream) Next() (pipeline.Slot, bool) {
	if s.pos >= s.rec.Len() {
		return pipeline.Slot{}, false
	}
	d, nextPC, addrs := s.rec.At(s.pos)
	s.pos++
	return pipeline.Slot{PC: d.PC, Inst: d.Inst, UOps: d.UOps, NextPC: nextPC, MemAddrs: addrs}, true
}

// TestStreamAdapterEquivalence: the engine reads the sim streams'
// records in place and any other stream's slots through its Next
// adapter; both must give the same Stats on every profile, in every
// mode and in rescheduled RPO, for the interpreter and the replayed
// recording alike. Each run covers 40k retirements from a cold engine,
// compared in two windows as sim runs them: the warmup, where the frame
// cache fills and the first frames abort, and the measured window after
// ResetStats. Frame aborts must occur so that re-executing an aborted
// frame's records in place is covered.
func TestStreamAdapterEquivalence(t *testing.T) {
	const insts, warm = 40_000, 10_000
	var aborts uint64
	for _, p := range workload.Profiles {
		prog, err := workload.Generate(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec := captureRecorded(prog, insts+captureSlack)
		for i, mode := range append(allModes, pipeline.ModeRePLayOpt) {
			cfg := pipeline.DefaultConfig(mode)
			name := fmt.Sprintf("%s/%s", p.Name, mode)
			if i == len(allModes) {
				cfg.OptReschedule = true
				name += " rescheduled"
			}
			run := func(eng *pipeline.Engine) [2]pipeline.Stats {
				eng.Run(warm)
				cold := eng.Stats()
				eng.ResetStats()
				eng.Run(insts - warm)
				return [2]pipeline.Stats{cold, eng.Stats()}
			}
			want := run(pipeline.NewFrom(cfg, mode, &replayStream{rec: rec}))
			if want[0].X86Retired < warm || want[1].X86Retired < insts-warm {
				t.Fatalf("%s: retired %d and %d of %d and %d", name, want[0].X86Retired, want[1].X86Retired, warm, insts-warm)
			}
			aborts += want[0].FrameAborts + want[1].FrameAborts
			for src, got := range map[string][2]pipeline.Stats{
				"Next-only recording": run(pipeline.New(cfg, mode, &slotStream{rec: &rec.Recording})),
				"cpuStream":           run(pipeline.NewFrom(cfg, mode, newCPUStream(prog))),
			} {
				for w, window := range []string{"warmup", "measured"} {
					if got[w] != want[w] {
						t.Errorf("%s: %s %s stats differ from the replayed records:\n got %+v\nwant %+v", name, src, window, got[w], want[w])
					}
				}
			}
		}
	}
	if aborts == 0 {
		t.Error("no frame aborted in any run; the in-place re-execution path went untested")
	}
}

// TestCaptureSizeBytes: the residency a capture reports, which the
// capture cache charges against DefaultCaptureBytes, is within an eighth
// of the heap it keeps live, on trace 0 of every profile: its columns,
// its decode table and the entries' flows and compiled ops.
func TestCaptureSizeBytes(t *testing.T) {
	const insts = 60_000
	for _, p := range workload.Profiles {
		prog, err := workload.Generate(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		// Two collections empty every sync.Pool, whose victim
		// generation would otherwise be freed inside the measurement.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := captureRecorded(prog, insts)
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		size := rec.SizeBytes()
		runtime.KeepAlive(rec)
		t.Logf("%s: SizeBytes %d, heap growth %d (%.3f)", p.Name, size, grown, float64(size)/float64(grown))
		if 8*size < 7*grown || 8*size > 9*grown {
			t.Errorf("%s: SizeBytes %d, heap growth %d", p.Name, size, grown)
		}
	}
}
