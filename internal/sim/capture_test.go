package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/trace"
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

// TestSlotStreamDumpReload: the on-disk slot-stream capture reloads into
// the slots the interpreter originally produced, and a timing run over
// the reloaded stream matches a live run exactly.
func TestSlotStreamDumpReload(t *testing.T) {
	p, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 8_000
	ss, err := CaptureSlotStream(p, 0, insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Slots) != insts {
		t.Fatalf("captured %d slots, want %d", len(ss.Slots), insts)
	}

	var buf bytes.Buffer
	if err := ss.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadSlots(&buf)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := SlotsFromRecorded(loaded)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: interpret live.
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := captureRecorded(prog, insts)
	if len(slots) != rec.len() {
		t.Fatalf("reloaded %d slots, captured %d", len(slots), rec.len())
	}
	captured := make([]pipeline.Slot, rec.len())
	for i := range captured {
		rec.slot(i, &captured[i])
	}
	for i := range slots {
		if !reflect.DeepEqual(slots[i], captured[i]) {
			t.Fatalf("slot %d differs after dump/reload:\n got %+v\nwant %+v", i, slots[i], captured[i])
		}
	}

	// And the timing model agrees over both streams.
	run := func(src pipeline.Stream) pipeline.Stats {
		eng := pipeline.New(pipeline.DefaultConfig(pipeline.ModeRePLayOpt), pipeline.ModeRePLayOpt, src)
		eng.Run(insts)
		return eng.Stats()
	}
	live := run(NewSlotStream(captured))
	reloaded := run(NewSlotStream(slots))
	if !reflect.DeepEqual(live, reloaded) {
		t.Error("timing stats differ between live and reloaded streams")
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
