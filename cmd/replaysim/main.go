// Command replaysim runs the paper's experiments and prints each table
// and figure of the evaluation section.
//
// Usage:
//
//	replaysim -experiment fig6 [-insts N] [-workloads a,b,c]
//	replaysim -load trace.xut [-mode RPO] [-insts N] [-json]
//
// Experiments: table1, table2, fig6, fig7, fig8, table3, fig9, fig10,
// summary (a compact calibration view), attr (per-pass optimization
// attribution), reuse (loop-structure reuse attribution and the
// representative workload subset), cycles (guest-cycle profiler:
// per-PC fetch-cycle attribution with loop-joined hotspots; -pprof
// additionally writes a gzipped pprof profile for `go tool pprof`),
// diff (ablation diff engine: the RPO baseline against the -vs variant
// spec, one run per side, joined per loop and per optimizer pass with
// improved/regressed/unchanged verdicts, e.g. -experiment diff -vs
// cse,sf), all.
//
// Every experiment runs through api.Run, the dispatcher replayd uses
// too, so -json prints exactly the result a replayd job carries for the
// same request.
//
// -load replays an external uop trace (tracegen -export, binary or
// NDJSON, auto-detected) through one processor mode and prints the
// cell; with -json the output is the replayd wire format, so a loaded
// file and an uploaded trace report identically.
//
// -attr appends the attribution table to any experiment; -trace out.json
// records frame-lifecycle events as Chrome trace_event JSON (open in
// chrome://tracing or Perfetto).
//
// -log-format/-log-level control structured diagnostics on stderr; the
// default level is warn so tables stay the only output of a clean run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"repro"
	"repro/internal/api"
	"repro/internal/cycleprof"
	"repro/internal/logflag"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xtrace"
)

func main() {
	experiment := flag.String("experiment", "summary", "which experiment to run")
	load := flag.String("load", "", "replay an external uop trace file instead of running an experiment")
	mode := flag.String("mode", "RPO", "processor mode for -load: IC, TC, RP or RPO")
	insts := flag.Int("insts", 0, "override the per-trace x86 instruction budget")
	workloads := flag.String("workloads", "", "comma-separated workload subset")
	cache := flag.Bool("cache", true,
		"share slot-stream captures across modes and memoize repeated runs (identical output, much faster -experiment all)")
	jsonOut := flag.Bool("json", false,
		"emit each experiment's rows as JSON in the replayd wire format (fig6..fig10, table3, summary; one object per line with -experiment all)")
	attr := flag.Bool("attr", false,
		"append the per-pass optimization attribution table (which optimizer pass killed/rewrote how many micro-ops, per workload)")
	traceOut := flag.String("trace", "",
		"record frame-lifecycle events and write Chrome trace_event JSON to this file (forces execution: the run memo is bypassed)")
	pprofOut := flag.String("pprof", "",
		"with -experiment cycles: write the guest-cycle profile as gzipped pprof protobuf to this file (inspect with `go tool pprof`)")
	vs := flag.String("vs", "",
		"with -experiment diff: the variant spec to compare against the RPO baseline — comma-separated tokens: pass names to disable (nop,cp,ra,cse,sf,asst,spec), scope=block|inter|frame, mode=IC|TC|RP|RPO")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "warn", "minimum log level: debug, info, warn, error")
	flag.Parse()

	// A batch tool's stdout is its report; structured logs default to
	// warn so they only surface problems unless asked for more.
	logger, lerr := logflag.New(os.Stderr, *logFormat, *logLevel)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "replaysim:", lerr)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	base := sim.Options{DisableCache: !*cache}
	var ring *telemetry.Ring
	if *traceOut != "" {
		ring = telemetry.NewRing(1<<16, "replaysim -experiment "+*experiment, "")
		base.Probes = []sim.Collector{ring}
	}

	var reqs []api.RunRequest
	var resolve api.Resolver
	var err error
	if *load != "" {
		reqs, resolve, err = loadRequest(*load, *mode, *insts)
	} else {
		reqs, err = requests(*experiment, *workloads, *insts, *vs, *attr)
		if err == nil && (*experiment == "table1" || *experiment == "all" && !*jsonOut) {
			table1()
		}
		if err == nil && (*experiment == "table2" || *experiment == "all" && !*jsonOut) {
			table2()
		}
	}
	for _, req := range reqs {
		var res *api.RunResponse
		if res, err = api.Run(context.Background(), req, nil, base, resolve); err != nil {
			break
		}
		if res.Cycles != nil && *pprofOut != "" {
			if err = writePprof(res.Cycles, *pprofOut); err != nil {
				break
			}
		}
		if !*jsonOut {
			writeText(res, *load)
		} else if err = emitJSON(res); err != nil {
			break
		}
	}
	if err == nil && *traceOut != "" {
		err = writeTraceFile(ring, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replaysim:", err)
		os.Exit(1)
	}
}

// requests maps the -experiment flag onto validated dispatcher
// requests: all is the paper's figure sequence, -attr appends the
// attribution table, and the static table1/table2 need none.
func requests(experiment, workloads string, insts int, vs string, attr bool) ([]api.RunRequest, error) {
	var exps []string
	switch experiment {
	case "table1", "table2":
	case "all":
		exps = []string{api.ExpFig6, api.ExpFig7, api.ExpFig8, api.ExpTable3, api.ExpFig9, api.ExpFig10}
	case api.ExpCell:
		return nil, fmt.Errorf("unknown experiment %q (replay a trace with -load)", experiment)
	default:
		exps = []string{experiment}
	}
	if attr && experiment != api.ExpAttr {
		exps = append(exps, api.ExpAttr)
	}
	var ws []string
	if workloads != "" {
		ws = strings.Split(workloads, ",")
	}
	reqs := make([]api.RunRequest, 0, len(exps))
	for _, exp := range exps {
		req := api.RunRequest{Experiment: exp, Workloads: ws, Insts: insts}
		if exp == api.ExpDiff {
			if vs == "" {
				return nil, fmt.Errorf("-experiment diff needs -vs <spec> (e.g. -vs cse,sf or -vs mode=RP)")
			}
			spec, err := api.ParseDiffSpec(vs)
			if err != nil {
				return nil, err
			}
			req.Diff = spec
		}
		if err := req.Validate(); err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// loadRequest decodes an external uop trace into the cell request that
// replays it under one processor mode, plus the resolver that serves
// the decoded trace to the dispatcher. The run memoizes on the trace's
// content ID, so re-running the same file under the same configuration
// is free.
func loadRequest(path, mode string, insts int) ([]api.RunRequest, api.Resolver, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	xt, err := xtrace.Decode(f, xtrace.Limits{})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	rec, err := xt.Recording()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	name := xt.Header.Name
	if name == "" {
		name = path
	}
	ext := &sim.ExternalRun{
		Name:        name,
		Fingerprint: xtrace.TraceID(xt),
		Recording:   rec,
		Insts:       int(xt.Header.Insts),
	}
	req := api.RunRequest{XTrace: ext.Fingerprint, Mode: mode, Insts: insts}
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	resolve := func(string) (*sim.ExternalRun, error) { return ext, nil }
	return []api.RunRequest{req}, resolve, nil
}

// writeText renders one response as the experiment's table or figure;
// loadPath names the trace file a cell response replayed.
func writeText(res *api.RunResponse, loadPath string) {
	switch res.Experiment {
	case api.ExpFig6:
		fig6(res.Fig6)
	case api.ExpFig7, api.ExpFig8:
		breakdown(res.Breakdown, res.Experiment == api.ExpFig7)
	case api.ExpTable3:
		table3(res.Table3)
	case api.ExpFig9:
		fig9(res.Fig9)
	case api.ExpFig10:
		fig10(res.Fig10)
	case api.ExpSummary:
		summary(res.Fig6, res.Table3)
	case api.ExpAttr:
		attrTable(res.Attr)
	case api.ExpReuse:
		// The bucket sums equal the pipeline's own retired totals (the
		// conservation invariant pinned by the reuse tests).
		fmt.Println("== Loop-structure reuse attribution (RPO) ==")
		res.Reuse.WriteText(os.Stdout)
		fmt.Println()
	case api.ExpCycles:
		fmt.Println("== Guest-cycle profile (RPO): per-PC fetch-cycle attribution ==")
		res.Cycles.WriteText(os.Stdout)
		fmt.Println()
	case api.ExpDiff:
		// The report's residuals are the conservation check: zero means
		// every removed micro-op and every cycle delta was pinned to a
		// loop and a pass.
		fmt.Printf("== Ablation diff: %s vs %s ==\n", res.Diff.Baseline, res.Diff.Variant)
		res.Diff.WriteText(os.Stdout)
		fmt.Println()
	case api.ExpCell:
		for _, c := range res.Cells {
			fmt.Printf("== External trace %s (%s) ==\n", loadPath, c.Workload)
			t := stats.NewTable("Mode", "IPC", "Cycles", "x86 insts", "uops", "uops base", "mispred")
			t.Row(c.Mode, fmt.Sprintf("%.3f", c.IPC), c.Stats.Cycles,
				c.Stats.X86Retired, c.Stats.UOpsRetired, c.Stats.UOpsBaseline,
				c.Stats.Mispredicts)
			t.Write(os.Stdout)
		}
	}
}

// writePprof saves the guest-cycle profile as gzipped pprof protobuf.
func writePprof(rep *sim.CycleReport, path string) error {
	data, err := cycleprof.Profile(rep.Profiles())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeTraceFile dumps the event ring as Chrome trace_event JSON.
func writeTraceFile(ring *telemetry.Ring, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ring.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attrTable prints, per workload, the micro-ops each optimizer pass
// killed or rewrote. The killed column sums to the optimizer's aggregate
// removal count (the conservation invariant pinned by the attribution
// tests).
func attrTable(rows []sim.AttrRow) {
	fmt.Println("== Per-pass optimization attribution (RPO) ==")
	for _, r := range rows {
		removed := r.Opt.Removed()
		fmt.Printf("%s (%s): %d of %d micro-ops removed\n",
			r.Workload, r.Class, removed, r.Opt.UOpsIn)
		t := stats.NewTable("Pass", "Calls", "Killed", "Rewritten", "% of removed")
		for _, ps := range r.Passes {
			pct := ""
			if removed > 0 {
				pct = fmt.Sprintf("%.1f%%", 100*float64(ps.Killed)/float64(removed))
			}
			t.Row(ps.Pass, ps.Calls, ps.Killed, ps.Rewritten, pct)
		}
		t.Write(os.Stdout)
		fmt.Println()
	}
}

func table1() {
	fmt.Println("== Table 1: Experimental Workload ==")
	t := stats.NewTable("Name", "Type of App.", "x86 Insts (scaled)", "Traces")
	for _, w := range repro.Workloads() {
		t.Row(w.Name, w.Class, w.Insts*w.Traces, w.Traces)
	}
	t.Write(os.Stdout)
	fmt.Println()
}

func table2() {
	cfg := repro.ProcessorConfig(repro.RPO)
	fmt.Println("== Table 2: Configuration of Processor ==")
	t := stats.NewTable("Parameter", "Value")
	t.Row("Pipeline", fmt.Sprintf("%d-wide fetch/issue/retire", cfg.Width))
	t.Row("x86 decoders", fmt.Sprintf("%d per cycle", cfg.DecodeWidth))
	t.Row("BR resolution (min)", fmt.Sprintf("%d cycles", cfg.MinBranchResolve))
	t.Row("Predictor", fmt.Sprintf("%d-bit gshare", cfg.GshareBits))
	t.Row("Inst window", fmt.Sprintf("%d micro-ops", cfg.WindowSize))
	t.Row("Exe units", fmt.Sprintf("%d simple ALU, %d complex ALU, %d FPU, %d LSU",
		cfg.SimpleALUs, cfg.ComplexALUs, cfg.FPUs, cfg.LSUs))
	t.Row("Frame/Trace cache", fmt.Sprintf("%dk micro-ops", cfg.FrameCacheUOps/1024))
	t.Row("L1 DCache", fmt.Sprintf("%dkB, %d cycle hit", cfg.L1DBytes/1024, cfg.L1DLat))
	t.Row("L2", fmt.Sprintf("%dkB, %d cycle hit", cfg.L2Bytes/1024, cfg.L2Lat))
	t.Row("Memory", fmt.Sprintf("%d cycles", cfg.MemLat))
	t.Row("Optimizer", fmt.Sprintf("%d cycles/micro-op, depth %d", cfg.OptCyclesPerUOp, cfg.OptPipeDepth))
	t.Write(os.Stdout)
	fmt.Println()
}

// emitJSON prints one experiment response in the replayd wire format,
// so scripted consumers parse CLI and daemon output identically.
func emitJSON(res *api.RunResponse) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	return enc.Encode(res)
}

func fig6(rows []sim.Fig6Row) {
	fmt.Println("== Figure 6: x86 Instructions Retired Per Cycle (IC / TC / RP / RPO) ==")
	t := stats.NewTable("Workload", "IC", "TC", "RP", "RPO", "RPO vs RP")
	var gain float64
	for _, r := range rows {
		t.Row(r.Workload, r.IPC[0], r.IPC[1], r.IPC[2], r.IPC[3], fmt.Sprintf("%+.0f%%", r.Gain))
		gain += r.Gain
	}
	t.Write(os.Stdout)
	fmt.Printf("mean IPC increase from optimization: %+.1f%%\n\n", gain/float64(len(rows)))

	fmt.Println("RPO IPC:")
	for _, r := range rows {
		stats.Bar(os.Stdout, r.Workload, r.IPC[3], 5.0, 50, "%.2f")
	}
	fmt.Println()
}

func breakdown(rows []sim.BreakdownRow, spec bool) {
	if spec {
		fmt.Println("== Figure 7: Execution cycles by fetch event (SPEC), RP vs RPO ==")
	} else {
		fmt.Println("== Figure 8: Execution cycles by fetch event (desktop), RP vs RPO ==")
	}
	t := stats.NewTable("Workload", "Cfg", "Cycles", "assert", "mispred", "miss", "stall", "wait", "frame", "icache")
	var maxCycles float64
	for _, r := range rows {
		if c := float64(r.RP.Cycles); c > maxCycles {
			maxCycles = c
		}
	}
	order := []pipeline.Bin{pipeline.BinAssert, pipeline.BinMispred, pipeline.BinMiss,
		pipeline.BinStall, pipeline.BinWait, pipeline.BinFrame, pipeline.BinICache}
	for _, r := range rows {
		for cfgIdx, s := range []pipeline.Stats{r.RP, r.RPO} {
			name := "RP"
			if cfgIdx == 1 {
				name = "RPO"
			}
			cells := []interface{}{r.Workload, name, s.Cycles}
			for _, b := range order {
				cells = append(cells, s.Bins[b])
			}
			t.Row(cells...)
		}
	}
	t.Write(os.Stdout)
	fmt.Println("\nstacked composition (a=assert m=mispred M=miss s=stall w=wait F=frame I=icache):")
	runes := []rune{'a', 'm', 'M', 's', 'w', 'F', 'I'}
	for _, r := range rows {
		for cfgIdx, s := range []pipeline.Stats{r.RP, r.RPO} {
			label := r.Workload + "/RP"
			if cfgIdx == 1 {
				label = r.Workload + "/RPO"
			}
			segs := make([]float64, len(order))
			for i, b := range order {
				segs[i] = float64(s.Bins[b])
			}
			stats.StackedBar(os.Stdout, label, segs, runes, maxCycles, 70)
		}
	}
	fmt.Println()
}

func table3(rows []sim.Table3Row) {
	fmt.Println("== Table 3: Micro-ops and LOADs removed by the rePLay optimizer ==")
	t := stats.NewTable("Application", "Micro-ops Removed", "Loads Removed", "Increase in IPC", "Coverage", "Abort rate")
	var u, l, i float64
	for _, r := range rows {
		t.Row(r.Workload,
			fmt.Sprintf("%.0f%%", r.UOpsRemoved),
			fmt.Sprintf("%.0f%%", r.LoadsRemoved),
			fmt.Sprintf("%.0f%%", r.IPCIncrease),
			fmt.Sprintf("%.0f%%", 100*r.FrameCoverage),
			fmt.Sprintf("%.1f%%", 100*r.AssertRate))
		u += r.UOpsRemoved
		l += r.LoadsRemoved
		i += r.IPCIncrease
	}
	n := float64(len(rows))
	t.Row("Average", fmt.Sprintf("%.0f%%", u/n), fmt.Sprintf("%.0f%%", l/n), fmt.Sprintf("%.0f%%", i/n), "", "")
	t.Write(os.Stdout)
	fmt.Println()
}

func fig9(rows []sim.Fig9Row) {
	fmt.Println("== Figure 9: % IPC speedup, intra-block vs frame-level optimization ==")
	t := stats.NewTable("Workload", "Block", "Frame")
	for _, r := range rows {
		t.Row(r.Workload, fmt.Sprintf("%+.1f%%", r.Block), fmt.Sprintf("%+.1f%%", r.Frame))
	}
	t.Write(os.Stdout)
	fmt.Println()
}

func fig10(rows []sim.Fig10Row) {
	fmt.Println("== Figure 10: Relative IPC with individual optimizations disabled ==")
	fmt.Println("(0 = RP, 1 = RPO with all optimizations)")
	header := []string{"Workload"}
	for _, v := range sim.Fig10Variants {
		header = append(header, v.Name)
	}
	header = append(header, "RP IPC", "RPO IPC")
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := []interface{}{r.Workload}
		for _, v := range r.Relative {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		cells = append(cells, r.RPIPC, r.RPOIPC)
		t.Row(cells...)
	}
	t.Write(os.Stdout)
	fmt.Println()
}

func summary(rows []sim.Fig6Row, t3 []sim.Table3Row) {
	fmt.Println("== Summary (calibration view) ==")
	t := stats.NewTable("Workload", "IC", "TC", "RP", "RPO", "dIPC", "uops-", "loads-", "cover", "abort")
	for i, r := range rows {
		t.Row(r.Workload, r.IPC[0], r.IPC[1], r.IPC[2], r.IPC[3],
			fmt.Sprintf("%+.0f%%", r.Gain),
			fmt.Sprintf("%.0f%%", t3[i].UOpsRemoved),
			fmt.Sprintf("%.0f%%", t3[i].LoadsRemoved),
			fmt.Sprintf("%.0f%%", 100*t3[i].FrameCoverage),
			fmt.Sprintf("%.1f%%", 100*t3[i].AssertRate))
	}
	t.Write(os.Stdout)
}
