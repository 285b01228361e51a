package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

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
	for _, mode := range []pipeline.Mode{
		pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt,
	} {
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

// TestCaptureSharedAcrossModes: the four modes of one workload trigger
// exactly one interpretation of its slot stream.
func TestCaptureSharedAcrossModes(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []pipeline.Mode{
		pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt,
	} {
		if _, err := RunWorkload(context.Background(), p, mode, Options{MaxInsts: 10_000}); err != nil {
			t.Fatal(err)
		}
	}
	captures.mu.Lock()
	n := len(captures.entries)
	captures.mu.Unlock()
	if n != 1 {
		t.Errorf("capture cache holds %d entries after 4 modes of 1 workload, want 1", n)
	}
}

// TestCaptureCacheBounded: residency never exceeds maxLiveCaptures.
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
		captures.mu.Lock()
		n := len(captures.entries)
		captures.mu.Unlock()
		if n > DefaultCaptureEntries {
			t.Fatalf("after %d workloads: %d live captures > bound %d", i+1, n, DefaultCaptureEntries)
		}
	}
}

// TestCaptureSlots: CaptureSlots yields slot for slot what the
// interpreter stream does, ends where the program halts, and returns the
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
		slots, err := CaptureSlots(c.prog, c.n)
		if (err != nil) != c.fails || len(slots) != c.want {
			t.Errorf("%s: %d slots, error %v; want %d slots, error %v", c.name, len(slots), err, c.want, c.fails)
			continue
		}
		src := newCPUStream(c.prog)
		var want pipeline.Slot
		for i := range slots {
			if !src.NextInto(&want) || !reflect.DeepEqual(slots[i], want) {
				t.Fatalf("%s: slot %d = %+v, interpreter gives %+v", c.name, i, slots[i], want)
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

// nextOnly hides a stream's NextInto, so the engine reads it through
// Next like any other pipeline.Stream.
type nextOnly struct{ s pipeline.Stream }

func (n nextOnly) Next() (pipeline.Slot, bool) { return n.s.Next() }

// TestStreamAdapterEquivalence: the engine decodes the sim streams'
// slots in place through NextInto and reads every other stream through
// Next; both must give the same Stats, in every mode, for the
// interpreter and the replayed recording alike. Frame aborts must occur
// so that re-executing an aborted frame's slots in place is covered.
func TestStreamAdapterEquivalence(t *testing.T) {
	const insts = 40_000
	var aborts uint64
	for _, name := range []string{"gzip", "bzip2", "excel", "photo"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := workload.Generate(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec := captureRecorded(prog, insts+captureSlack)
		for _, mode := range []pipeline.Mode{
			pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt,
		} {
			run := func(src pipeline.Stream) pipeline.Stats {
				eng := pipeline.New(pipeline.DefaultConfig(mode), mode, src)
				eng.Run(insts)
				return eng.Stats()
			}
			want := run(nextOnly{&replayStream{rec: rec}})
			if want.X86Retired < insts {
				t.Fatalf("%s/%s: retired %d of %d", name, mode, want.X86Retired, insts)
			}
			aborts += want.FrameAborts
			for src, got := range map[string]pipeline.Stats{
				"replayStream":     run(&replayStream{rec: rec}),
				"cpuStream":        run(newCPUStream(prog)),
				"cpuStream (Next)": run(nextOnly{newCPUStream(prog)}),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: %s stats differ from Next-only replay:\n got %+v\nwant %+v", name, mode, src, got, want)
				}
			}
		}
	}
	if aborts == 0 {
		t.Error("no frame aborted in any run; the in-place re-execution path went untested")
	}
}
