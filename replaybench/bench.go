package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (TestBenchmarkJSONMatchesList keeps them in step).
type metricDef struct {
	Name, Unit, Better string
}

// e2eMetrics are measured with tracing off, on every workload. An
// operation is a round (the cold workloads), a sweep (paper-sweep) or a
// request (replayd-mix).
var e2eMetrics = []metricDef{
	{"insts_per_s", "inst/s", "higher"}, // measured-window x86 instructions simulated per host second
	{"op_ms_p50", "ms", "lower"},
	{"setup_s", "s", "lower"}, // process exec to ready-to-measure, median of several set-ups
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetrics come from the traced run. The simulator layers' costs
// are measured on every workload; the shares of a layer a workload does
// not run (the sweep's figures, the server's phases) read 0 there.
var layerMetrics = []metricDef{
	{"cpu.interp_ns_per_inst", "ns/inst", "lower"},
	{"x86.decode_ns_per_inst", "ns/inst", "lower"},
	{"workload.generate_ns_per_inst", "ns/inst", "lower"},
	{"opt.nop_ns_per_inst", "ns/inst", "lower"},
	{"opt.cp_ns_per_inst", "ns/inst", "lower"},
	{"opt.ra_ns_per_inst", "ns/inst", "lower"},
	{"opt.cse_ns_per_inst", "ns/inst", "lower"},
	{"opt.mem_ns_per_inst", "ns/inst", "lower"},
	{"opt.assert_ns_per_inst", "ns/inst", "lower"},
	{"opt.dce_ns_per_inst", "ns/inst", "lower"},
	{"pipeline.engine_ns_per_inst", "ns/inst", "lower"},
	{"frame.construct_ns_per_inst", "ns/inst", "lower"},
	{"frame.fetches_per_build", "count", "higher"},
	{"frame.abort_frac", "frac", "lower"},
	{"opt.removed_frac", "frac", "higher"},
	{"pipeline.ipc", "inst/cycle", "higher"},
	{"pipeline.uop_reduction", "frac", "higher"},
	{"sim.parallel_speedup", "x", "higher"},
	{"sim.runs_per_op", "count", "lower"},
	{"sim.memo_hit_frac", "frac", "higher"},
	{"sim.capture_hit_frac", "frac", "higher"},
	{"sweep.fig6_frac", "frac", "lower"},
	{"sweep.fig7_frac", "frac", "lower"},
	{"sweep.fig8_frac", "frac", "lower"},
	{"sweep.table3_frac", "frac", "lower"},
	{"sweep.fig9_frac", "frac", "lower"},
	{"sweep.fig10_frac", "frac", "lower"},
	{"server.http_frac", "frac", "lower"},
	{"server.queue_frac", "frac", "lower"},
	{"server.exec_frac", "frac", "higher"},
	{"server.warm_http_frac", "frac", "lower"},
	{"server.warm_p99_over_p50", "x", "lower"},
	{"server.coalesced_frac", "frac", "higher"},
	{"server.rejected_frac", "frac", "lower"},
	{"host.alloc_bytes_per_inst", "B/inst", "lower"},
	{"host.gc_cpu_frac", "frac", "lower"},
	{"trace_overhead", "frac", "lower"},
	{"trace.unattributed_frac", "frac", "lower"},
}

// params is what a workload's inputs are made from.
type params struct {
	seed int64
	// maxInsts overrides every trace's instruction budget when > 0; the
	// tests shrink it, the benchmark never does.
	maxInsts int
}

// workloadDef is one workload: its name, why it is in the benchmark,
// and how to set up the system under test for it.
type workloadDef struct {
	name, why string
	setup     func(params) (session, error)
}

// session is a workload set up and ready to measure.
type session interface {
	// run measures operations until the deadline. With rec set it runs
	// the trace mix: traced operations interleaved with untraced ones.
	run(deadline time.Time, rec *recorder, hs *hostScale) *result
	// afterRun does the checks and, with rec set, the layer timings that
	// follow the measured window and stay out of its metrics.
	afterRun(rec *recorder, res *result)
	close()
}

var workloads = []workloadDef{
	{"spec-cold", "7 SPECint profiles under RPO with caches off: long-trip loops, interpreter and engine bound, no fan-out or memo", setupCold(true)},
	{"desktop-cold", "7 desktop profiles (17 traces) under RPO with caches off: per-trace fan-out, big code footprints, more decode and optimizer work", setupCold(false)},
	{"paper-sweep", "Figures 6-10 and Table 3 with caches on: the only workload running the IC/TC engines, the capture cache, the run memo and runAll", setupSweep},
	{"replayd-mix", "2 closed-loop clients against in-process replayd: 80% memo-hit requests beside 20% cold cells, so serving costs show apart from simulation", setupMix},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// seededProfiles returns the profiles with every generator seed offset
// by the benchmark seed: the same program shape, a different program.
func seededProfiles(ps []workload.Profile, p params) []workload.Profile {
	out := make([]workload.Profile, len(ps))
	for i, pr := range ps {
		pr.Seed += p.seed * 1000
		if p.maxInsts > 0 {
			pr.XInsts = p.maxInsts
		}
		out[i] = pr
	}
	return out
}

// generateAll assembles every program of the profiles, so a seed whose
// program cannot be built fails during set-up, before any timing.
func generateAll(ps []workload.Profile) error {
	for _, p := range ps {
		for t := 0; t < p.Traces; t++ {
			if _, err := workload.Generate(p, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// opKind selects how an operation runs.
type opKind int

const (
	plain  opKind = iota // untraced, on every CPU
	serial               // untraced, on one CPU
	traced               // traced (on one CPU for the cold workloads)
)

// result is what one measured run saw. Times are wall times; the run's
// end-to-end metrics put them on the host scale (see hostScale).
type result struct {
	attempted, failed int
	failures          []string
	ms                [3][]float64 // operation times by opKind
	rates             []float64    // insts per second, per plain operation or replayd slice
	insts             uint64       // instructions simulated by all operations
	instsPerS         float64
	digests           map[string]string // the first operation's result digests
	layers            map[string]float64
}

func newResult() *result { return &result{layers: map[string]float64{}} }

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// opOut is what one operation produced: the instructions it simulated
// and its results, which are digested outside the timed region.
type opOut struct {
	insts uint64
	rows  map[string]any
}

// runSequential runs op back to back until the deadline, cycling
// through kinds, and checks every operation's results against the
// first operation's (and, for seed 0, against the committed goldens).
func runSequential(name string, p params, kinds []opKind, deadline time.Time, rec *recorder, hs *hostScale,
	op func(kind opKind, t *opTrace, parent int) (opOut, error)) *result {
	res := newResult()
	var ref map[string]string
	var runs []float64      // sim runs executed per plain operation
	var cycles [][3]float64 // each cycle through kinds: its operations' times
	for i := 0; i < len(kinds) || time.Now().Before(deadline); i++ {
		kind := kinds[i%len(kinds)]
		if i%len(kinds) == 0 {
			cycles = append(cycles, [3]float64{})
		}
		var t *opTrace
		root := -1
		if kind == traced {
			t = rec.newOp(1)
			root = t.begin(name, -1)
		}
		runs0 := sim.SnapshotMetrics().RunsExecuted
		start := time.Now()
		out, err := op(kind, t, root)
		dur := time.Since(start)
		if t != nil {
			t.end(root)
		}
		opRuns := sim.SnapshotMetrics().RunsExecuted - runs0
		hs.calibrateAfter(dur)
		res.attempted++
		if err != nil {
			res.fail("operation %d: %v", i, err)
			continue
		}
		if t != nil {
			rec.finish(t)
		}
		got := digests(out.rows)
		if ref == nil {
			ref, res.digests = got, got
			if err := checkGolden(name, p, got); err != nil {
				res.fail("%v", err)
				continue
			}
		} else if d := diffDigests(ref, got); d != "" {
			res.fail("operation %d (%s) differs from operation 0: %s", i, kindNames[kind], d)
			continue
		}
		res.ms[kind] = append(res.ms[kind], ms(dur))
		cycles[len(cycles)-1][kind] = ms(dur)
		res.insts += out.insts
		if kind == plain {
			res.rates = append(res.rates, float64(out.insts)/dur.Seconds())
			runs = append(runs, float64(opRuns))
		}
	}
	res.instsPerS = median(res.rates)
	res.layers["sim.runs_per_op"] = median(runs)
	if rec != nil {
		// Traced operations are compared with the untraced ones of their
		// own cycle, so the host's drift over the run cancels.
		if slices.Contains(kinds, serial) {
			res.layers["sim.parallel_speedup"] = cycleRatio(cycles, serial, plain)
			res.layers["trace_overhead"] = cycleRatio(cycles, traced, serial) - 1
		} else {
			res.layers["trace_overhead"] = cycleRatio(cycles, traced, plain) - 1
		}
	}
	return res
}

// cycleRatio is the median over cycles of the ratio of two of their
// operations' times.
func cycleRatio(cycles [][3]float64, a, b opKind) float64 {
	var rs []float64
	for _, c := range cycles {
		if c[a] > 0 && c[b] > 0 {
			rs = append(rs, c[a]/c[b])
		}
	}
	return median(rs)
}

var kindNames = [3]string{"plain", "serial", "traced"}

// digests hashes each result row's JSON encoding.
func digests(rows map[string]any) map[string]string {
	out := make(map[string]string, len(rows))
	for k, v := range rows {
		b, err := json.Marshal(v)
		if err != nil {
			b = []byte("unencodable: " + err.Error())
		}
		sum := sha256.Sum256(b)
		out[k] = hex.EncodeToString(sum[:])
	}
	return out
}

// diffDigests names the rows whose digests differ, "" when none do.
func diffDigests(want, got map[string]string) string {
	var bad []string
	for k, w := range want {
		if got[k] != w {
			bad = append(bad, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return ""
	}
	sort.Strings(bad)
	return fmt.Sprintf("rows %v", bad)
}

// goldenJSON holds the seed-0 result digests of every workload at full
// budget. Regenerate with: go test -run TestGolden -update
//
//go:embed testdata/golden_seed0.json
var goldenJSON []byte

// checkGolden compares a seed-0, full-budget workload's digests with the
// committed ones; other seeds and budgets are checked only against their
// own first operation.
func checkGolden(name string, p params, got map[string]string) error {
	if p.seed != 0 || p.maxInsts != 0 {
		return nil
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden digests: %w", err)
	}
	if d := diffDigests(golden[name], got); d != "" {
		return fmt.Errorf("seed-0 results differ from testdata/golden_seed0.json: %s", d)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// calRef is about the calibration's fastest time on a 2-vCPU x86-64 VM.
// The constant only sets the scale of host-scaled times: on such a host,
// unloaded, they read as wall times.
const calRef = 9 * time.Millisecond

// hostScale puts times measured on a shared host onto a common scale.
// The host's speed drifts by tens of percent within minutes, far more
// than the changes the benchmark must resolve. A run therefore also
// times a fixed calibration loop of the benchmark's own, about once per
// calEvery of measured work, and its time metrics are multiplied by
// factor: calRef over the calibration's median time in the run. A change
// to the program moves scaled times as it moves wall times; a slower
// host slows the calibration too and cancels out. Calibration runs
// between operations, never inside a timed one.
type hostScale struct {
	cal []float64 // calibration times, ms
}

// calEvery is how much measured work one calibration run covers; the
// calibration costs about 3% of a run.
const calEvery = 300 * time.Millisecond

// calibrateAfter runs the calibration loop once per calEvery of the
// work just measured, and at least once.
func (h *hostScale) calibrateAfter(work time.Duration) {
	for i := 0; i <= int(work/calEvery); i++ {
		h.cal = append(h.cal, ms(calibrate()))
	}
}

// factor is calRef over the median calibration time.
func (h *hostScale) factor() float64 { return div(ms(calRef), median(h.cal)) }

var (
	calOnce   sync.Once
	calTables [][]uint64
)

// calibrate runs the same fixed loop on every CPU at once and returns
// the mean of their times, so a host that slows one CPU, or both, shows.
// The loop mixes dependent integer arithmetic, unpredictable branches
// and random reads and writes over a 256 KiB table, the kinds of work the
// simulator does. The table fits a core's own cache: with a 4 MiB one the
// calibration slowed more than the simulator under other tenants' cache
// pressure, and across seeds the scaled metrics spread about twice as
// wide (README.md).
func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	calOnce.Do(func() {
		for i := 0; i < n; i++ {
			calTables = append(calTables, make([]uint64, 1<<15))
		}
	})
	times := make([]time.Duration, n)
	var wg sync.WaitGroup
	for g := range times {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := time.Now()
			table, x := calTables[g%len(calTables)], uint64(1)
			for i := 0; i < 1_500_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				if x&(1<<40) != 0 {
					table[x>>49] += x
				} else {
					table[(x>>30)&1023] ^= x
				}
			}
			times[g] = time.Since(start)
		}(g)
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / time.Duration(n)
}
