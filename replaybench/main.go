// Command replaybench is the repository's benchmark. It runs one of four
// workloads for a fixed time, checks every simulated result, and prints
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced run, each by name and unit. The last line of its output is a
// JSON summary:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"op_ms_p50": {"value": 452.1, "unit": "ms"}, ...}}
//
// Without --workload it runs every workload untraced and traced, each
// in a child process of its own, and can write a schema-2 report.
//
// Usage (from the repository root; replaybench/run.sh builds and runs it):
//
//	replaybench --workload spec-cold --seed 3 --seconds 15 --trace 0
//	replaybench [--seed 0] [--seconds 8] [--out report.json] [--trace-out dir]
//	replaybench --list
//	replaybench --compare OLD.json[,OLD2.json...] NEW.json[,NEW2.json...]
//
// The exit status is 1 when any result is wrong; --compare exits 1 when
// an end-to-end metric got worse by more than its bound in BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sim"
)

// setupReps is how many times set-up is timed, each in a fresh process.
const setupReps = 9

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload in child processes")
	seed := flag.Int64("seed", 0, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 8, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced mix and reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "write the traced run's spans as Chrome trace_event JSON here (a directory without --workload)")
	out := flag.String("out", "", "without --workload: write the schema-2 report here")
	list := flag.Bool("list", false, "list the workloads and metrics and exit")
	compare := flag.Bool("compare", false, "compare reports: --compare OLD[,OLD...] NEW[,NEW...]")
	bounds := flag.String("bounds", "BENCHMARK.json", "the file --compare reads each metric's bound from")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print \"ready\" and exit (set-up timing)")
	flag.Parse()

	switch {
	case *list:
		writeList(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two report lists, got %d arguments", flag.NArg()))
		}
		regressions, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			os.Exit(1)
		}
	case *name == "":
		ok, err := runAll(*seed, *seconds, *out, *traceOut)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		p := params{seed: *seed}
		if *setupOnly {
			s, err := w.setup(p)
			if err != nil {
				fatal(err)
			}
			fmt.Println("ready")
			s.close()
			return
		}
		rep, err := runWorkload(w, p, *seconds, *trace == 1, *traceOut)
		if err != nil {
			fatal(err)
		}
		if err := printRun(os.Stdout, rep); err != nil {
			fatal(err)
		}
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replaybench:", err)
	os.Exit(2)
}

// runReport is one measured run of one workload.
type runReport struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	WallS     float64                `json:"wall_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	// HostScale is the factor the run's time metrics were multiplied by
	// (rates divided by), and SetupScale the one setup_s was; see
	// hostScale.
	HostScale  float64 `json:"host_scale,omitempty"`
	SetupScale float64 `json:"setup_scale,omitempty"`
}

// metricValue is a metric's value; for a median, the quartiles and the
// number of samples it was taken over.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runWorkload sets the workload up, measures it for the given time and
// turns what it saw into the end-to-end metrics or, traced, the
// per-layer ones.
func runWorkload(w workloadDef, p params, seconds int, trace bool, traceOut string) (*runReport, error) {
	hs, setupHS := &hostScale{}, &hostScale{}
	var setups []float64
	if !trace {
		var err error
		if setups, err = timeSetups(w.name, p.seed, setupHS); err != nil {
			return nil, fmt.Errorf("timing set-up: %w", err)
		}
	}
	s, err := w.setup(p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	var rec *recorder
	if trace {
		rec = newRecorder(traceOut != "")
	}
	h0, m0 := readHost(), sim.SnapshotMetrics()
	start := time.Now()
	res := s.run(start.Add(time.Duration(seconds)*time.Second), rec, hs)
	wall := time.Since(start)
	h1, m1 := readHost(), sim.SnapshotMetrics()
	s.afterRun(rec, res)

	rep := &runReport{Workload: w.name, Trace: trace, Correct: res.failed == 0,
		Attempted: res.attempted, Failed: res.failed, Failures: res.failures,
		WallS: wall.Seconds(), Metrics: map[string]metricValue{}}
	defs, vals := e2eMetrics, map[string]metricValue{}
	if !trace {
		f, sf := hs.factor(), setupHS.factor()
		vals["insts_per_s"] = withQuartiles(res.instsPerS, res.rates).scaled(1 / f)
		vals["op_ms_p50"] = withQuartiles(median(res.ms[plain]), res.ms[plain]).scaled(f)
		vals["setup_s"] = withQuartiles(median(setups), setups).scaled(sf)
		vals["peak_rss_mb"] = metricValue{Value: peakRSSMB()}
		rep.HostScale, rep.SetupScale = f, sf
	} else {
		defs = layerMetrics
		layers := res.layers
		st := m1.Aggregate
		st.Sub(&m0.Aggregate)
		countLayers(layers, &st)
		runs := float64(m1.RunsExecuted - m0.RunsExecuted)
		memoHits := float64(m1.MemoHits - m0.MemoHits)
		captureHits := float64(m1.CaptureHits - m0.CaptureHits)
		layers["sim.memo_hit_frac"] = div(memoHits, memoHits+runs)
		layers["sim.capture_hit_frac"] = div(captureHits, captureHits+float64(m1.CaptureBuilds-m0.CaptureBuilds))
		layers["host.alloc_bytes_per_inst"] = div(float64(h1.allocBytes-h0.allocBytes), float64(res.insts))
		layers["host.gc_cpu_frac"] = div(h1.gcCPU-h0.gcCPU, h1.totalCPU-h0.totalCPU)
		layers["trace.unattributed_frac"] = div(float64(rec.rootSelf), float64(rec.rootDur))
		for name, v := range layers {
			vals[name] = metricValue{Value: v}
		}
		if traceOut != "" {
			if err := writeTraceFile(rec, traceOut); err != nil {
				return nil, err
			}
		}
	}
	for _, m := range defs {
		v := vals[m.Name]
		v.Unit = m.Unit
		rep.Metrics[m.Name] = v
	}
	return rep, nil
}

// countLayers adds the ratios of the simulated machine's counters over
// the simulations the run executed.
func countLayers(layers map[string]float64, st *pipeline.Stats) {
	layers["frame.fetches_per_build"] = div(float64(st.FrameFetches), float64(st.FramesConstructed))
	layers["frame.abort_frac"] = div(float64(st.FrameAborts), float64(st.FrameFetches))
	layers["opt.removed_frac"] = div(float64(st.Opt.Removed()), float64(st.Opt.UOpsIn))
	layers["pipeline.ipc"] = st.IPC()
	layers["pipeline.uop_reduction"] = st.UOpReduction()
}

func withQuartiles(v float64, samples []float64) metricValue {
	m := metricValue{Value: v, N: len(samples)}
	if len(samples) >= 2 {
		m.Q1, m.Q3 = quartiles(samples)
	}
	return m
}

// scaled multiplies the value and its quartiles by f.
func (m metricValue) scaled(f float64) metricValue {
	m.Value, m.Q1, m.Q3 = m.Value*f, m.Q1*f, m.Q3*f
	return m
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeTraceFile(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// timeSetups starts the benchmark setupReps times with --setup-only and
// times each from exec until it reports ready, so set-up includes
// process start and every one-time initialisation. It returns the wall
// times in seconds and calibrates the host after each set-up: the host's
// speed then differs from its speed in the measured window, so set-up
// and the window are each scaled by their own calibrations.
func timeSetups(name string, seed int64, hs *hostScale) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout) // drain so Wait can reap the child
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up process: %q, %v, %v", line, rerr, werr)
		}
		out = append(out, d.Seconds())
		hs.calibrateAfter(d)
	}
	return out, nil
}

// printRun prints every metric by name and unit, then the detailed run
// report as one "report" line, then the summary line.
func printRun(w io.Writer, rep *runReport) error {
	defs := e2eMetrics
	if rep.Trace {
		defs = layerMetrics
	}
	fmt.Fprintf(w, "%s trace=%v: %d operations in %.1fs, %d failed\n", rep.Workload, rep.Trace, rep.Attempted, rep.WallS, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Fprintf(w, "  %-30s %14.6g %-10s", d.Name, m.Value, m.Unit)
		if m.Q3 != 0 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		fmt.Fprintln(w)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", b)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]valueUnit{}}
	for _, d := range defs {
		sum.Metrics[d.Name] = valueUnit{rep.Metrics[d.Name].Value, d.Unit}
	}
	if b, err = json.Marshal(sum); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report is a full run: every workload untraced and traced.
type report struct {
	Schema     int         `json:"schema"`
	Provenance provenance  `json:"provenance"`
	Runs       []runReport `json:"runs"`
}

type provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	PGO        bool   `json:"pgo"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func buildProvenance(seed int64, seconds int) provenance {
	p := provenance{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, Seconds: seconds}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "-pgo":
				p.PGO = s.Value != ""
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// runAll runs every workload untraced and then traced, each run in a
// child process so no cache, pool or heap carries over between runs. It
// reports whether every result was correct.
func runAll(seed int64, seconds int, out, traceDir string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return false, err
		}
	}
	rep := report{Schema: 2, Provenance: buildProvenance(seed, seconds)}
	ok := true
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", trace}
			if trace == "1" && traceDir != "" {
				args = append(args, "--trace-out", filepath.Join(traceDir, w.name+".json"))
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			run, perr := parseRun(stdout)
			if perr != nil {
				return false, fmt.Errorf("%s --trace %s: %v (%v)", w.name, trace, perr, err)
			}
			for _, line := range strings.SplitAfter(string(stdout), "\n") {
				if !strings.HasPrefix(line, "report ") && !strings.HasPrefix(line, "{") {
					fmt.Print(line)
				}
			}
			ok = ok && run.Correct
			rep.Runs = append(rep.Runs, *run)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return ok, nil
}

// parseRun extracts the run report a child printed.
func parseRun(stdout []byte) (*runReport, error) {
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if b, ok := bytes.CutPrefix(line, []byte("report ")); ok {
			var r runReport
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, err
			}
			return &r, nil
		}
	}
	return nil, fmt.Errorf("no report line in the output")
}

// writeList prints the workloads and metrics.
func writeList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	for _, group := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end metrics:", e2eMetrics}, {"per-layer metrics (--trace 1):", layerMetrics}} {
		fmt.Fprintln(w, group.title)
		for _, m := range group.defs {
			fmt.Fprintf(w, "  %-30s %-10s %s\n", m.Name, m.Unit, m.Better)
		}
	}
}
