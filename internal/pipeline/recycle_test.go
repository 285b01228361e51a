package pipeline_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/translate"
	"repro/internal/workload"
)

// recycleRun is one engine run of the isolation tests.
type recycleRun struct {
	name string
	rec  *translate.Recording
	mode pipeline.Mode
	cfg  pipeline.Config
}

// capture records the first insts instructions of trace 0 of a profile.
func capture(t testing.TB, name string, insts int) *translate.Recording {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sim.Capture(prog, insts)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// recycleRuns lists every mode over three profiles' captures, mode by
// mode so each engine follows one of another profile, plus an RPO run
// with a smaller gshare: its table cannot be the pooled one, and the
// next engine meets a pooled table of the wrong size.
func recycleRuns(t testing.TB, insts int) []recycleRun {
	t.Helper()
	var recs []*translate.Recording
	names := []string{"gzip", "excel", "crafty"}
	for _, name := range names {
		recs = append(recs, capture(t, name, insts))
	}
	var runs []recycleRun
	for _, mode := range []pipeline.Mode{pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt} {
		for i, rec := range recs {
			runs = append(runs, recycleRun{fmt.Sprintf("%s/%v", names[i], mode), rec, mode, pipeline.DefaultConfig(mode)})
		}
		if mode == pipeline.ModeTraceCache {
			cfg := pipeline.DefaultConfig(pipeline.ModeRePLayOpt)
			cfg.GshareBits = 12
			runs = append(runs, recycleRun{"gzip/RPO/gshare=12", recs[0], pipeline.ModeRePLayOpt, cfg})
		}
	}
	return runs
}

// runOn runs r from a cold engine: warmup, ResetStats, measured window,
// as sim does. It returns the engine unclosed and both windows' Stats.
func runOn(r recycleRun, insts int) (*pipeline.Engine, [2]pipeline.Stats) {
	e := pipeline.NewFrom(r.cfg, r.mode, &recordingStream{rec: r.rec})
	var st [2]pipeline.Stats
	e.Run(uint64(insts / 4))
	st[0] = e.Stats()
	e.ResetStats()
	e.Run(uint64(insts - insts/4))
	st[1] = e.Stats()
	return e, st
}

// freshStats runs each of runs on tables no engine used before: two
// collections empty every sync.Pool, and these engines are never
// closed, so nothing they hold is pooled.
func freshStats(runs []recycleRun, insts int) [][2]pipeline.Stats {
	runtime.GC()
	runtime.GC()
	want := make([][2]pipeline.Stats, len(runs))
	for i, r := range runs {
		_, want[i] = runOn(r, insts)
	}
	return want
}

// recycledRuns runs runs back to back, each engine closed before the
// next starts, and reports each Stats that differs from want. It
// returns how many engines took their predecessor's gshare table.
func recycledRuns(t *testing.T, runs []recycleRun, want [][2]pipeline.Stats, insts int) (reused int) {
	var prev any
	for i, r := range runs {
		e, got := runOn(r, insts)
		if pipeline.Gshare(e) == prev {
			reused++
		}
		if got != want[i] {
			t.Errorf("%s on recycled tables: Stats differ from a fresh engine's\ngot  %+v\nwant %+v", r.name, got, want[i])
		}
		prev = pipeline.Gshare(e)
		e.Close()
	}
	return reused
}

// TestRecycledTablesIsolated: an engine on the tables its predecessor
// closed — another profile, every mode, and a gshare size that differs
// from the pooled one — gives exactly the Stats of an engine on fresh
// tables, so Close clears every table it pools.
func TestRecycledTablesIsolated(t *testing.T) {
	const insts = 20_000
	runs := recycleRuns(t, insts)
	want := freshStats(runs, insts)
	if reused := recycledRuns(t, runs, want, insts); reused == 0 {
		t.Error("no engine took its predecessor's gshare table")
	}
}

// TestRecycledTablesConcurrent: engines on several goroutines share the
// pools; each still gives a fresh engine's Stats. Run it under -race.
func TestRecycledTablesConcurrent(t *testing.T) {
	const insts = 10_000
	runs := recycleRuns(t, insts)
	want := freshStats(runs, insts)
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recycledRuns(t, runs, want, insts)
		}()
	}
	wg.Wait()
}

// setupCycle is one engine's whole life in a short run: NewFrom, a
// 2k-instruction RPO run, Close.
func setupCycle(rec *translate.Recording) {
	e := pipeline.NewFrom(pipeline.DefaultConfig(pipeline.ModeRePLayOpt), pipeline.ModeRePLayOpt, &recordingStream{rec: rec})
	e.Run(2_000)
	e.Close()
}

// TestEngineSetupAllocs bounds what a warm engine cycle allocates: its
// fixed tables (about half a megabyte fresh) come from the pools the
// previous cycle closed into. A collection between Close and NewFrom
// empties the pools, so the bound holds for the cheapest of several
// cycles.
func TestEngineSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	const bound = 64 << 10
	rec := capture(t, "gzip", 4_000)
	setupCycle(rec)
	least := ^uint64(0)
	var ms runtime.MemStats
	for range 20 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		setupCycle(rec)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if least > bound {
		t.Errorf("a warm engine cycle allocates %d bytes, want at most %d", least, bound)
	}
}

// BenchmarkEngineSetup times one engine's whole life in a short run
// (see setupCycle); B/op is what a warm cycle allocates.
func BenchmarkEngineSetup(b *testing.B) {
	rec := capture(b, "gzip", 4_000)
	b.ReportAllocs()
	for b.Loop() {
		setupCycle(rec)
	}
}
