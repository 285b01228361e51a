package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ringCounts exports the ring and counts its events by name, failing
// the test if the ring overflowed (the counts would then be partial).
func ringCounts(t *testing.T, ring *telemetry.Ring) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := ring.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		OtherData struct {
			Dropped uint64 `json:"dropped_events"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	if tf.OtherData.Dropped != 0 {
		t.Fatalf("ring dropped %d events", tf.OtherData.Dropped)
	}
	n := map[string]uint64{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "M" {
			n[e.Name]++
		}
	}
	return n
}

// TestLifecycleConservation pins the lifecycle collectors to the
// pipeline's measured-window counters for every workload profile under
// RP, RPO and TC, the way TestReuseConservation pins the reuse buckets:
// histogram sample counts, the ring's commit, abort and assert events,
// and its cache hits, which on the frame path are frame fetches (not
// every cache lookup hit) and on the trace-cache path are line fetches.
func TestLifecycleConservation(t *testing.T) {
	for _, p := range workload.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []pipeline.Mode{pipeline.ModeRePLay, pipeline.ModeRePLayOpt, pipeline.ModeTraceCache} {
				set := telemetry.NewHistogramSet()
				ring := telemetry.NewRing(1<<16, "", "")
				res, err := RunWorkload(context.Background(), p, mode,
					Options{MaxInsts: 40_000, Probes: []Collector{telemetry.NewHistograms(set, ""), ring},
						DisableCache: true})
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				st := &res.Stats
				n := ringCounts(t, ring)
				hits := st.FrameFetches
				if mode == pipeline.ModeTraceCache {
					hits = n["trace-fetch"]
				}
				checks := []struct {
					what      string
					got, want uint64
				}{
					{"replay_frame_uops count", set.FrameUOps.Snapshot().Count, st.FramesConstructed},
					{"replay_opt_dwell_cycles count", set.OptDwell.Snapshot().Count, st.FramesOptimized},
					{"frame-commit events", n["frame-commit"], st.FrameCommits},
					{"frame-abort events", n["frame-abort"], st.FrameAborts},
					{"assert-fire events", n["assert-fire"], st.FrameAborts},
					{"cache-hit events", n["cache-hit"], hits},
				}
				for _, c := range checks {
					if c.got != c.want {
						t.Errorf("%s/%s: %s %d != %d", p.Name, mode, c.what, c.got, c.want)
					}
				}
				if n["cache-hit"] == 0 {
					t.Errorf("%s/%s: no cache hits recorded", p.Name, mode)
				}
			}
		})
	}
}

// residencyTruth is a probe attached from an engine's first cycle: it
// stamps every cache insertion itself and, once measuring, sums the
// residency of each entry evicted in the measured window.
type residencyTruth struct {
	pipeline.NopProbe
	insertedAt  map[uint32]uint64
	measuring   bool
	warm        map[uint32]bool // entries already cached when measuring began
	count, sum  uint64
	warmEvicted int
}

func (r *residencyTruth) CacheInsert(cycle uint64, pc uint32, _ int) {
	r.insertedAt[pc] = cycle
	delete(r.warm, pc)
}

func (r *residencyTruth) Evict(cycle uint64, pc uint32, _ int, _ uint64) {
	if r.measuring {
		r.count++
		r.sum += cycle - r.insertedAt[pc]
		if r.warm[pc] {
			r.warmEvicted++
		}
	}
	delete(r.insertedAt, pc)
	delete(r.warm, pc)
}

// TestResidencyCoversWarmupFrames: the residency histogram, attached
// after warmup as every collector is, samples each frame cached during
// the measured window exactly once with its true residency — at
// eviction or at end of run — including frames inserted during warmup.
// The expectation comes from an identical engine watched from cycle 0.
func TestResidencyCoversWarmupFrames(t *testing.T) {
	p, err := workload.ByName("excel")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	set := telemetry.NewHistogramSet()
	if _, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
		Options{MaxInsts: budget, Probes: []Collector{telemetry.NewHistograms(set, "")}, DisableCache: true}); err != nil {
		t.Fatal(err)
	}

	var wantCount, wantSum uint64
	warmEvicted := 0
	for tr := 0; tr < p.Traces; tr++ {
		prog, err := workload.Generate(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		eng := pipeline.NewFrom(pipeline.DefaultConfig(pipeline.ModeRePLayOpt), pipeline.ModeRePLayOpt, newCPUStream(prog))
		truth := &residencyTruth{insertedAt: map[uint32]uint64{}}
		eng.SetProbe(truth)
		warm := uint64(float64(budget) * 0.4)
		eng.Run(warm)
		warmEnd := eng.Stats().Cycles
		truth.measuring = true
		truth.warm = map[uint32]bool{}
		for pc := range truth.insertedAt {
			truth.warm[pc] = true
		}
		eng.ResetStats()
		eng.Run(budget - warm)
		end := warmEnd + eng.Stats().Cycles
		for _, t0 := range truth.insertedAt {
			truth.count++
			truth.sum += end - t0
		}
		wantCount += truth.count
		wantSum += truth.sum
		warmEvicted += truth.warmEvicted
	}
	if warmEvicted == 0 {
		t.Fatal("no warmup-inserted frame evicted in the measured window; the test exercises nothing")
	}
	got := set.CacheResidency.Snapshot()
	if got.Count != wantCount || uint64(got.Sum) != wantSum {
		t.Errorf("residency histogram: %d samples summing to %d cycles, want %d summing to %d",
			got.Count, uint64(got.Sum), wantCount, wantSum)
	}
}

// TestSamplersKeepMemo: a histogram-only run may be served from the run
// memo, and a memo hit adds no samples; attaching any other collector
// (here the event ring) forces the run to execute.
func TestSamplersKeepMemo(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewHistogramSet()
	hist := telemetry.NewHistograms(set, "")
	run := func(probes ...Collector) uint64 {
		t.Helper()
		// An odd budget no other test shares, so the first run executes.
		if _, err := RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
			Options{MaxInsts: 23_457, Probes: probes}); err != nil {
			t.Fatal(err)
		}
		return set.FrameUOps.Snapshot().Count
	}
	first := run(hist)
	if first == 0 {
		t.Fatal("first histogram-only run recorded no samples")
	}
	if again := run(hist); again != first {
		t.Errorf("memo-served histogram-only run added %d samples", again-first)
	}
	ring := telemetry.NewRing(1<<16, "", "")
	if traced := run(hist, ring); traced != 2*first {
		t.Errorf("run with a ring attached: %d samples, want %d (executed again)", traced, 2*first)
	}
	if n := ringCounts(t, ring); n["construct"] == 0 {
		t.Error("ring recorded no frame constructions")
	}
}

// TestSweepRingOrder: one event ring attached to a sweep of several
// jobs exports the same bytes whether the jobs ran one at a time
// (parallelism 1) or concurrently (parallelism 4). In the attr sweep
// excel's three traces finish after the one-trace jobs dispatched
// behind it; in Figure 10 the RPO run and its six leave-one-out
// variants of each workload share one run name. The ring is small
// enough to wrap, so the window it keeps depends on the order of its
// runs as well as their pids. A ring that numbered and wrapped its
// runs in fold order fails this.
func TestSweepRingOrder(t *testing.T) {
	var profiles []workload.Profile
	for _, name := range []string{"excel", "sound", "gzip", "vortex"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	sweeps := []struct {
		name string
		run  func(Options) error
	}{
		{"attr", func(o Options) error {
			_, err := Attribution(context.Background(), profiles, o)
			return err
		}},
		{"fig10", func(o Options) error {
			_, err := Fig10(context.Background(), o)
			return err
		}},
	}
	for _, sweep := range sweeps {
		t.Run(sweep.name, func(t *testing.T) {
			export := func(parallelism int) []byte {
				old := SetParallelism(parallelism)
				defer SetParallelism(old)
				ring := telemetry.NewRing(1<<12, "", "")
				if err := sweep.run(Options{MaxInsts: 30_000, Probes: []Collector{ring}}); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := ring.WriteTrace(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			serial, parallel := export(1), export(4)
			if bytes.Contains(serial, []byte(`"dropped_events":0`)) {
				t.Fatal("event ring did not wrap; shrink it")
			}
			if !bytes.Equal(serial, parallel) {
				t.Errorf("sweep trace export depends on scheduling: %d bytes at parallelism 1, %d at 4",
					len(serial), len(parallel))
			}
		})
	}
}

// runNames records the name of every probe run attached to it.
type runNames struct {
	mu    sync.Mutex
	names []string
}

func (c *runNames) Attach(run string, _ int, _ *reuse.LoopStack) (pipeline.Probe, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.names = append(c.names, run)
	return pipeline.NopProbe{}, func() {}
}

// TestProbeRunNamesPerConfig: within one sweep, runs of different
// configurations never share a probe run name (the ring orders its runs
// by name alone): Figure 9's intra-block runs, Figure 10's leave-one-out
// variants and a diff's variant side are named apart from the baseline
// runs beside them.
func TestProbeRunNamesPerConfig(t *testing.T) {
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	noCSE := func(c *pipeline.Config) { c.OptOptions.CSE = false }
	sweeps := []struct {
		name string
		run  func(Options) error
		want []string // names the sweep must produce
	}{
		{"fig9", func(o Options) error {
			_, err := Fig9(context.Background(), []workload.Profile{gzip}, o)
			return err
		}, []string{"gzip/RP/t0", "gzip/RPO/t0", "gzip/RPO/intra-block/t0"}},
		{"fig10", func(o Options) error {
			_, err := Fig10(context.Background(), o)
			return err
		}, []string{"bzip2/RPO/t0", "bzip2/RPO/no ASST/t0", "excel/RPO/no SF/t0"}},
		{"diff", func(o Options) error {
			_, err := Diff(context.Background(), []DiffPair{{
				Base:    DiffSide{Profile: &gzip, Mode: pipeline.ModeRePLayOpt},
				Variant: DiffSide{Profile: &gzip, Mode: pipeline.ModeRePLayOpt, ConfigMod: noCSE},
			}}, o)
			return err
		}, []string{"gzip/RPO/t0", "gzip/RPO/variant/t0"}},
	}
	for _, sweep := range sweeps {
		t.Run(sweep.name, func(t *testing.T) {
			c := &runNames{}
			if err := sweep.run(Options{MaxInsts: 10_000, Probes: []Collector{c}}); err != nil {
				t.Fatal(err)
			}
			names := slices.Clone(c.names)
			slices.Sort(names)
			for i := 1; i < len(names); i++ {
				if names[i] == names[i-1] {
					t.Errorf("two runs named %q", names[i])
				}
			}
			for _, w := range sweep.want {
				if !slices.Contains(names, w) {
					t.Errorf("no run named %q in %v", w, names)
				}
			}
		})
	}
}
