// Package sim is the experiment driver: it wires workloads, the
// functional reference machine, and the timing model together, runs the
// paper's four processor configurations, and computes the metrics behind
// every table and figure of the evaluation (Section 6).
package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/cycleprof"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/tracing"
	"repro/internal/translate"
	"repro/internal/workload"
)

// addrChunk is the arena-chunk size for per-slot memory addresses: one
// allocation per ~16k addresses instead of one per memory instruction.
const addrChunk = 16 << 10

// maxSlotMemOps bounds the memory transactions a single instruction can
// issue (a load-op-store plus stack traffic stays well under this); a
// fresh arena chunk starts when less than this much room remains, so a
// slot's addresses never straddle chunks.
const maxSlotMemOps = 8

// cpuStream adapts the functional interpreter to the timing model's
// correct-path instruction stream (the Micro-Op Injector).
type cpuStream struct {
	c     *cpu.CPU
	table *translate.Table
	addrs []uint32 // current arena chunk for slot MemAddrs
	err   error
}

func newCPUStream(prog *workload.Program) *cpuStream {
	return &cpuStream{
		c:     prog.NewCPU(),
		table: translate.NewTable(prog.Base, len(prog.Code)),
	}
}

// NextInto retires one instruction on the reference machine into r,
// which the engine passes from its own storage.
func (s *cpuStream) NextInto(r *pipeline.Rec) (ok bool) {
	r.Entry, r.NextPC, r.MemAddrs, ok = s.step()
	return ok
}

// step retires one instruction and returns its decode-table entry, its
// dynamic successor and the memory addresses it touched, or ok=false at
// HLT or on an interpreter error (kept in s.err).
func (s *cpuStream) step() (d *translate.Entry, nextPC uint32, addrs []uint32, ok bool) {
	if s.c.Halted || s.err != nil {
		return nil, 0, nil, false
	}
	i := s.table.Find(s.c.PC)
	if i < 0 {
		var err error
		if i, err = s.table.Decode(s.c.PC, s.c.Mem.ReadBytes(s.c.PC, 15)); err != nil {
			s.err = err
			return nil, 0, nil, false
		}
	}
	d = s.table.Entry(i)
	if d.Ctl == translate.CtlHalt {
		return nil, 0, nil, false
	}
	if cap(s.addrs)-len(s.addrs) < maxSlotMemOps {
		s.addrs = make([]uint32, 0, addrChunk)
	}
	base := len(s.addrs)
	grown, nextPC, err := s.c.StepInst(&d.Inst, s.addrs)
	if err != nil {
		s.err = err
		return nil, 0, nil, false
	}
	s.addrs = grown
	// nil (not empty) when the instruction touches no memory, so slots
	// deep-equal the ones xtrace's adapter rebuilds from an export. The
	// addresses alias the arena chunk, capacity-clipped; slots are
	// read-only downstream.
	if n := len(grown); n > base {
		addrs = grown[base:n:n]
	}
	return d, nextPC, addrs, true
}

// Options configures a run beyond the processor mode.
type Options struct {
	// ConfigMod edits the Table 2 configuration before the run (ablation
	// hooks: optimization switches, scope, latencies, sizes).
	ConfigMod func(*pipeline.Config)
	// WarmupFrac is the fraction of the instruction budget excluded from
	// measurement while caches, predictors, and the frame cache warm.
	WarmupFrac float64
	// MaxInsts overrides the profile's instruction budget when > 0.
	MaxInsts int
	// DisableCache turns off the shared slot-stream capture and the run
	// memo: every mode re-interprets the workload and every run executes
	// even if an identical one already did. The live interpreter then
	// runs ahead of the engine on a goroutine of its own whenever the
	// CPU semaphore has a free token. Results are bit-identical either
	// way (the decoded stream is deterministic per profile and trace);
	// the switch exists for benchmarking the caching layer and as an
	// escape hatch.
	DisableCache bool
	// Notify, when set, is called once per completed run (memo hits
	// included) with its result. Sweep drivers like replayd use it to
	// stream per-(workload, mode) progress; it must be safe for
	// concurrent calls, since runAll completes runs in parallel.
	Notify func(Result)
	// Probes are attached to every engine after warmup, so their
	// attribution covers exactly the measured window and their totals
	// equal the window's Stats counters (the conservation invariant).
	// Probed runs fan their traces out like any other run; each trace's
	// folds apply in trace order after the join, so no report depends on
	// scheduling. Any probe but a Sampler forces execution (a memoized
	// run would observe nothing).
	Probes []Collector

	// variant names the configuration a sweep derived from the caller's
	// (an ablation variant, a diff's variant side), so probe runs of
	// different configurations never share a name.
	variant string
}

// Collector gathers one probe's results across every engine a run
// creates: the reuse, cycleprof and diff collectors, and telemetry's
// lifecycle histograms, pass attribution and event ring.
//
// A run's folds apply in trace order after its traces join; across the
// runs of a sweep they apply as each run ends, in no fixed order, so a
// collector's folded state must not depend on the order of its runs.
type Collector interface {
	// Attach returns the probe for one engine run, named
	// "<workload>/<mode>/t<trace>", or "<workload>/<mode>/<variant>/t<trace>"
	// for a configuration a sweep derived (an ablation variant, a diff's
	// variant side), over trace t, reading the engine's shared loop stack, and
	// the func that folds the probe into the collector once the engine's
	// measured window ends. Runs that share a name share their
	// configuration, so they are the same deterministic run.
	Attach(run string, t int, loops *reuse.LoopStack) (probe pipeline.Probe, done func())
}

// Sampler is a Collector that only samples distributions (telemetry's
// lifecycle histograms). A run it misses costs it samples, not
// correctness, so runs whose collectors are all Samplers keep the run
// memo, and memo hits add no samples. A Sampler's probe reads no loop
// stack: a run whose collectors are all Samplers attaches them with a
// nil one and advances none.
type Sampler interface {
	Collector
	SamplesOnly()
}

// mustExecute reports whether a collector needs every run executed.
func mustExecute(probes []Collector) bool {
	for _, c := range probes {
		if _, ok := c.(Sampler); !ok {
			return true
		}
	}
	return false
}

// withProbe returns probes plus c, leaving the caller's slice alone:
// an experiment's own collector rides beside the caller's.
func withProbe(probes []Collector, c Collector) []Collector {
	return append(probes[:len(probes):len(probes)], c)
}

// Result is the aggregated outcome of one workload under one mode.
type Result struct {
	Workload string
	Class    string
	Mode     pipeline.Mode
	Stats    pipeline.Stats
}

// IPC is the workload's x86 instructions per cycle.
func (r *Result) IPC() float64 { return r.Stats.IPC() }

// source is one simulation input: a workload profile, whose traces are
// interpreted (or replayed from their captures), or an adapted external
// trace. Every run, whatever its source, goes through run.
type source struct {
	name, class string
	// memoID is the input's run-memo identity; the zero value disables
	// the memo (it must never alias two different streams).
	memoID inputID
	traces int
	// budget is the default instruction budget; maxBudget, when > 0,
	// caps Options.MaxInsts.
	budget, maxBudget int
	// stream opens trace t for a run of budget instructions.
	stream func(t, budget int, disableCache bool) (slotSource, error)
}

// profileSource reads the profile's traces from the shared captures,
// or interprets them live when the cache is disabled, ahead of the
// engine when a CPU is free.
func profileSource(p workload.Profile) source {
	return source{name: p.Name, class: p.Class, memoID: inputID{profile: p},
		traces: p.Traces, budget: p.XInsts,
		stream: func(t, budget int, disableCache bool) (slotSource, error) {
			if disableCache {
				prog, err := workload.Generate(p, t)
				if err != nil {
					return nil, err
				}
				return runAhead(newCPUStream(prog)), nil
			}
			rec, err := captures.get(p, t, budget)
			if err != nil {
				return nil, err
			}
			return &replayStream{rec: rec}, nil
		}}
}

// RunWorkload simulates every hot-spot trace of the profile under the
// mode and aggregates the measured statistics. Cancelling ctx aborts
// the simulation between fetch groups and returns the context's error;
// a nil ctx means run to completion.
//
// Unless o.DisableCache is set, two layers of reuse apply: the retired
// slot stream of each (profile, trace) is captured once and replayed for
// every mode and every budget the recording covers (a longer budget
// records it again, and the new recording replaces the old), and a
// completed (profile, mode, budget, warmup, config) run is memoized
// outright, so experiment sweeps that share runs (fig6/fig7/fig8/table3/
// fig9 all repeat the RP and RPO baselines) execute them once. Both
// layers are observationally transparent: the stream is deterministic
// per (profile, trace).
func RunWorkload(ctx context.Context, p workload.Profile, mode pipeline.Mode, o Options) (Result, error) {
	return run(ctx, profileSource(p), mode, o)
}

// run simulates every trace of src under the mode: budget, warmup and
// configuration from o, the run memo, the per-trace fan-out, metrics
// and Notify. It opens one sim.run span, a no-op nil span unless the
// caller's context carries an active trace (replayd requests do).
func run(ctx context.Context, src source, mode pipeline.Mode, o Options) (res Result, err error) {
	ctx, span := tracing.Start(ctx, "sim.run")
	span.SetAttr("workload", src.name)
	span.SetAttr("mode", mode.String())
	if src.class == ExternalClass {
		span.SetAttr("external", true)
	}
	defer func() {
		span.SetError(err)
		span.End()
	}()

	res = Result{Workload: src.name, Class: src.class, Mode: mode}
	budget := src.budget
	if o.MaxInsts > 0 {
		budget = o.MaxInsts
		if src.maxBudget > 0 {
			budget = min(budget, src.maxBudget)
		}
	}
	warmFrac := o.WarmupFrac
	if warmFrac == 0 {
		// The paper's traces run 50-300M instructions, so optimizer and
		// frame-cache fill is negligible; at our scaled trace lengths the
		// fill phase must be excluded explicitly.
		warmFrac = 0.4
	}
	cfg := pipeline.DefaultConfig(mode)
	if o.ConfigMod != nil {
		o.ConfigMod(&cfg)
	}

	key := memoKey{input: src.memoID, mode: mode,
		budget: budget, warmFrac: warmFrac, config: cfg}
	useMemo := src.memoID != (inputID{}) && !o.DisableCache && !mustExecute(o.Probes) && selfEqual(key)
	if useMemo {
		if s, ok := memoGet(key); ok {
			span.SetAttr("memo_hit", true)
			res.Stats = s
			if o.Notify != nil {
				o.Notify(res)
			}
			return res, nil
		}
	}

	if res.Stats, err = runTraces(ctx, &src, mode, cfg, o, budget, warmFrac); err != nil {
		return res, err
	}
	if span != nil {
		spanSummaries(span, o.Probes)
	}
	recordRun(&res.Stats)
	if useMemo {
		memoPut(key, res.Stats)
	}
	if o.Notify != nil {
		o.Notify(res)
	}
	return res, nil
}

// runTraces runs every trace of src concurrently, each on its own
// engine over its own stream. Workers are spawned only while the global
// semaphore has free tokens (TryAcquire — a nested fan-out never blocks
// holding a token, which is what makes two-level parallelism
// deadlock-free); the calling goroutine always works too, so progress
// never depends on a token being free. After the join, per-trace stats
// are added and the collectors' folds applied in trace-index order:
// integer counters added in a fixed order make the aggregate
// bit-identical to a serial loop's, and folds in that order give every
// collector the report a serial loop would. Folds apply even when the
// run fails, so a failed run's events stay inspectable.
func runTraces(ctx context.Context, src *source, mode pipeline.Mode,
	cfg pipeline.Config, o Options, budget int, warmFrac float64) (pipeline.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	stats := make([]pipeline.Stats, src.traces)
	folds := make([][]func(), src.traces)
	errs := make([]error, src.traces)
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			t := int(next.Add(1)) - 1
			if t >= src.traces {
				return
			}
			stats[t], folds[t], errs[t] = runTrace(ctx, src, mode, cfg, o, budget, warmFrac, t)
			if errs[t] != nil {
				cancel() // abort the remaining traces
			}
		}
	}

	sem := acquireSem()
	var wg sync.WaitGroup
	for w := 1; w < src.traces && sem.TryAcquire(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sem.Release()
			work()
		}()
	}
	work()
	wg.Wait()

	var total pipeline.Stats
	for t := range stats {
		for _, fold := range folds[t] {
			fold()
		}
		total.Add(&stats[t])
	}
	if err := jobsError(errs, parent); err != nil {
		return pipeline.Stats{}, err
	}
	return total, nil
}

// jobsError selects the deterministic error for a completed fan-out:
// the failure of the earliest job by index. An error that is exactly
// context.Canceled is the induced abort of a failing sibling (our
// cancel tearing down in-flight jobs), never the root cause, so it is
// reported only when the caller's own context was cancelled or nothing
// better exists. An error that merely wraps context.Canceled, by
// contrast, is a real failure that absorbed a cancellation somewhere
// in its chain and must not be skipped.
func jobsError(errs []error, parent context.Context) error {
	var induced error
	for _, err := range errs {
		switch {
		case err == nil:
		case err != context.Canceled:
			return err
		case induced == nil:
			induced = err
		}
	}
	if err := parent.Err(); err != nil {
		return err
	}
	return induced
}

// runTrace simulates trace t of src on its own engine: warmup window,
// probe attach, measured window. It returns the collectors' fold funcs
// unapplied, in attach order, for runTraces to apply in trace order.
// When the context carries an active span the two windows get child
// spans and the measured window additionally aggregates
// per-optimizer-pass wall time into opt.<pass> spans.
func runTrace(ctx context.Context, src *source, mode pipeline.Mode, cfg pipeline.Config,
	o Options, budget int, warmFrac float64, t int) (st pipeline.Stats, folds []func(), err error) {
	stream, err := src.stream(t, budget, o.DisableCache)
	if err != nil {
		return st, nil, err
	}
	if a, ok := stream.(*aheadStream); ok {
		// Budget reached, cancelled or failed: the producer stops here.
		defer a.stop()
	}
	eng := pipeline.NewFrom(cfg, mode, stream)
	defer eng.Close() // after the returned Stats are read

	warm := uint64(float64(budget) * warmFrac)
	wctx, wspan := tracing.Start(ctx, "sim.warmup")
	wspan.SetAttr("trace", t)
	_, err = eng.RunContext(wctx, warm)
	wspan.End()
	if err != nil {
		return st, nil, err
	}
	// Probes attach after warmup, so they cover exactly the measured
	// window — the same boundary ResetStats draws for the counters.
	// Attaching per engine keeps a collector shared across parallel runs
	// race-free.
	if len(o.Probes) > 0 {
		run := fmt.Sprintf("%s/%s/t%d", src.name, mode, t)
		if o.variant != "" {
			run = fmt.Sprintf("%s/%s/%s/t%d", src.name, mode, o.variant, t)
		}
		var probes []pipeline.Probe
		probes, folds = attachProbes(o.Probes, run, t)
		eng.SetProbes(probes...)
	}
	eng.ResetStats()
	mctx, mspan := tracing.Start(ctx, "sim.measure")
	mspan.SetAttr("trace", t)
	var agg *passAgg
	if mspan != nil {
		agg = newPassAgg()
		eng.SetPassRecorder(agg)
	}
	_, err = eng.RunContext(mctx, uint64(budget)-warm)
	// Detaching closes the probes' window: still-cached entries report
	// their residency before the collectors fold.
	eng.SetProbes()
	if err == nil {
		if serr := stream.Err(); serr != nil {
			err = fmt.Errorf("sim %s trace %d: %w", src.name, t, serr)
		}
	}
	if agg != nil {
		agg.emit(mspan)
	}
	mspan.SetError(err)
	mspan.End()
	if err != nil {
		return st, folds, err
	}
	return eng.Stats(), folds, nil
}

// attachProbes returns one engine run's probe list, in the order the
// engine calls it, and the collectors' fold funcs in attach order.
// Unless every collector is a Sampler, the list starts with the run's
// loop stack, so it advances past each retired slot before any
// collector's probe reads it; Samplers read none, so a run of Samplers
// alone has none.
func attachProbes(cs []Collector, run string, t int) (probes []pipeline.Probe, folds []func()) {
	var loops *reuse.LoopStack
	if mustExecute(cs) {
		loops = new(reuse.LoopStack)
		probes = append(probes, loops)
	}
	for _, c := range cs {
		p, done := c.Attach(run, t, loops)
		probes = append(probes, p)
		folds = append(folds, done)
	}
	return probes, folds
}

// spanSummaries puts each probe's headline numbers on the sim.run span.
func spanSummaries(span *tracing.Span, probes []Collector) {
	for _, c := range probes {
		switch c := c.(type) {
		case *reuse.Collector:
			// How much of the retired mass sat inside loops, and how much
			// loop structure was found.
			rep := c.Snapshot()
			span.SetAttr("reuse_loops", rep.Loops)
			span.SetAttr("reuse_back_edges", rep.BackEdges)
			span.SetAttr("reuse_loop_uops", rep.LoopUOps)
			span.SetAttr("reuse_loop_uop_frac", rep.LoopFrac())
		case *cycleprof.Collector:
			// The two bins the paper's Figure 7/8 narrative turns on.
			rep := c.Snapshot()
			span.SetAttr("cycles_mispred_frac", rep.BinFrac(pipeline.BinMispred))
			span.SetAttr("cycles_frame_frac", rep.BinFrac(pipeline.BinFrame))
		}
	}
}

// runJob is one (source, mode, options) simulation request.
type runJob struct {
	src  source
	mode pipeline.Mode
	opts Options
	out  *Result
	err  *error
}

// side is one configuration a sweep runs over every source.
type side struct {
	mode pipeline.Mode
	opts Options
}

// sweepJobs lists the jobs running each side over each source, side
// by side: every source's first job comes before any source's second.
// A source's jobs share one capture, which its first job to run
// records while the others wait on it holding a CPU token, so listed
// source by source a sweep's second job would sit idle beside the
// first. out(i, k) gives the result and error slots of source i under
// side k.
func sweepJobs(srcs []source, sides []side, out func(i, k int) (*Result, *error)) []runJob {
	jobs := make([]runJob, 0, len(srcs)*len(sides))
	for k, sd := range sides {
		for i, src := range srcs {
			r, err := out(i, k)
			jobs = append(jobs, runJob{src: src, mode: sd.mode, opts: sd.opts, out: r, err: err})
		}
	}
	return jobs
}

// profileSources wraps each profile as a source.
func profileSources(profiles []workload.Profile) []source {
	srcs := make([]source, len(profiles))
	for i, p := range profiles {
		srcs[i] = profileSource(p)
	}
	return srcs
}

// runProbed runs the RPO configuration over each source through runAll,
// each with a private collector from newCol attached beside o's, and
// returns the collectors and results in source order.
func runProbed[C Collector](ctx context.Context, srcs []source, o Options, newCol func() C) ([]C, []Result, error) {
	jobs := make([]runJob, len(srcs))
	cols := make([]C, len(srcs))
	results := make([]Result, len(srcs))
	errs := make([]error, len(srcs))
	for i := range jobs {
		cols[i] = newCol()
		jobs[i] = runJob{src: srcs[i], mode: pipeline.ModeRePLayOpt, opts: o, out: &results[i], err: &errs[i]}
		jobs[i].opts.Probes = withProbe(o.Probes, cols[i])
	}
	return cols, results, runAll(ctx, jobs)
}

// runAll executes jobs in parallel under the process-global CPU
// semaphore, so nested and concurrent sweeps compose to the machine's
// parallelism instead of multiplying it. A token is acquired before
// each goroutine spawns, so a long job list never materializes more
// goroutines than can run; the first failure (or a cancelled ctx)
// stops dispatching and cancels the jobs already in flight.
//
// The error returned is deterministic: the failure of the earliest
// job by index. A job error that is exactly context.Canceled is the
// induced abort of a failing sibling, not a root cause, and is
// reported only when nothing better exists; an error that merely
// wraps context.Canceled is a real failure that absorbed a
// cancellation somewhere in its chain and is never skipped.
func runAll(ctx context.Context, jobs []runJob) error {
	if ctx == nil {
		ctx = context.Background()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sem := acquireSem()
	var wg sync.WaitGroup
	for i := range jobs {
		if sem.Acquire(ctx) != nil {
			break // cancelled: stop dispatching
		}
		wg.Add(1)
		go func(j *runJob) {
			defer wg.Done()
			defer sem.Release()
			if *j.out, *j.err = run(ctx, j.src, j.mode, j.opts); *j.err != nil {
				cancel()
			}
		}(&jobs[i])
	}
	wg.Wait()

	errs := make([]error, len(jobs))
	for i := range jobs {
		errs[i] = *jobs[i].err
	}
	return jobsError(errs, parent)
}
