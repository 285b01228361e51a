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
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/workload"
	"repro/internal/x86"
)

// decodedInst is a per-PC decode-and-translation cache entry: one map
// lookup on the stepping hot path instead of the two that separate
// inst/µop maps cost.
type decodedInst struct {
	in   x86.Inst
	uops []uop.UOp
}

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
	c       *cpu.CPU
	decoded map[uint32]decodedInst
	addrs   []uint32 // current arena chunk for slot MemAddrs
	err     error
}

func newCPUStream(prog *workload.Program) *cpuStream {
	return &cpuStream{
		c:       prog.NewCPU(),
		decoded: make(map[uint32]decodedInst),
	}
}

// Next retires one instruction on the reference machine.
func (s *cpuStream) Next() (pipeline.Slot, bool) {
	if s.c.Halted || s.err != nil {
		return pipeline.Slot{}, false
	}
	pc := s.c.PC
	d, ok := s.decoded[pc]
	if !ok {
		in, err := x86.Decode(s.c.Mem.ReadBytes(pc, 15))
		if err != nil {
			s.err = err
			return pipeline.Slot{}, false
		}
		us, err := translate.UOps(in, pc)
		if err != nil {
			s.err = err
			return pipeline.Slot{}, false
		}
		d = decodedInst{in: in, uops: us}
		s.decoded[pc] = d
	}
	if d.in.Op == x86.OpHLT {
		return pipeline.Slot{}, false
	}
	if cap(s.addrs)-len(s.addrs) < maxSlotMemOps {
		s.addrs = make([]uint32, 0, addrChunk)
	}
	base := len(s.addrs)
	grown, nextPC, err := s.c.StepAddrs(s.addrs)
	if err != nil {
		s.err = err
		return pipeline.Slot{}, false
	}
	s.addrs = grown
	// nil (not empty) when the instruction touches no memory, so slots
	// round-trip exactly through the on-disk slot-stream format. The
	// addresses alias the arena chunk, capacity-clipped; slots are
	// read-only downstream.
	var addrs []uint32
	if n := len(grown); n > base {
		addrs = grown[base:n:n]
	}
	return pipeline.Slot{PC: pc, Inst: d.in, UOps: d.uops, NextPC: nextPC, MemAddrs: addrs}, true
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
	// even if an identical one already did. Results are bit-identical
	// either way (the decoded stream is deterministic per profile and
	// trace); the switch exists for benchmarking the caching layer and
	// as an escape hatch.
	DisableCache bool
	// Notify, when set, is called once per completed run (memo hits
	// included) with its result. Sweep drivers like replayd use it to
	// stream per-(workload, mode) progress; it must be safe for
	// concurrent calls, since runAll completes runs in parallel.
	Notify func(Result)
	// Telemetry, when set, receives frame-lifecycle events from every
	// engine the run creates. A collector with attribution or tracing
	// enabled bypasses the run memo (a memoized run executes nothing, so
	// it would silently produce no events); a histogram-only collector
	// keeps memoization, and memo hits simply contribute no samples.
	Telemetry *telemetry.Collector
	// Probes are attached to every engine after warmup, so their
	// attribution covers exactly the measured window and their totals
	// equal the window's Stats counters (the conservation invariant).
	// Any probe forces execution (a memoized run would observe nothing)
	// and keeps the serial per-trace path.
	Probes []Collector
}

// Collector gathers one probe's results across every engine a run
// creates: reuse.Collector, cycleprof.Collector and diff.Collector.
type Collector interface {
	// Attach returns the probe for one engine over trace t, reading the
	// engine's shared loop stack, and the func that folds the probe into
	// the collector once the engine's measured window ends.
	Attach(t int, loops *reuse.LoopStack) (probe pipeline.Probe, done func())
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

// RunWorkload simulates every hot-spot trace of the profile under the
// mode and aggregates the measured statistics. Cancelling ctx aborts
// the simulation between fetch groups and returns the context's error;
// a nil ctx means run to completion.
//
// Unless o.DisableCache is set, two layers of reuse apply: the retired
// slot stream of each (profile, trace, budget) is captured once and
// replayed for every mode, and a completed (profile, mode, budget,
// warmup, config) run is memoized outright, so experiment sweeps that
// share runs (fig6/fig7/fig8/table3/fig9 all repeat the RP and RPO
// baselines) execute them once. Both layers are observationally
// transparent: the stream is deterministic per (profile, trace).
func RunWorkload(ctx context.Context, p workload.Profile, mode pipeline.Mode, o Options) (Result, error) {
	// One span per (workload, mode) run; a no-op nil span unless the
	// caller's context carries an active trace (replayd requests do).
	ctx, span := tracing.Start(ctx, "sim.run")
	span.SetAttr("workload", p.Name)
	span.SetAttr("mode", mode.String())
	res, err := runWorkload(ctx, p, mode, o, span)
	span.SetError(err)
	span.End()
	return res, err
}

func runWorkload(ctx context.Context, p workload.Profile, mode pipeline.Mode, o Options, span *tracing.Span) (Result, error) {
	res := Result{Workload: p.Name, Class: p.Class, Mode: mode}
	budget := p.XInsts
	if o.MaxInsts > 0 {
		budget = o.MaxInsts
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

	useMemo := !o.DisableCache && !o.Telemetry.RequiresExecution() && len(o.Probes) == 0
	var key memoKey
	if useMemo {
		key = memoKey{profile: profileFingerprint(&p), mode: mode,
			budget: budget, warmFrac: warmFrac, config: cfg.Fingerprint()}
		if s, ok := memoGet(key); ok {
			span.SetAttr("memo_hit", true)
			res.Stats = s
			if o.Notify != nil {
				o.Notify(res)
			}
			return res, nil
		}
	}

	// Multi-trace profiles fan their traces out across the global CPU
	// semaphore; aggregation stays in trace-index order, so the result
	// is bit-identical to the serial loop. Telemetry, probed and
	// span-traced runs keep the serial path: all attach per-engine
	// observers whose event interleaving is part of their output.
	if p.Traces > 1 && o.Telemetry == nil && len(o.Probes) == 0 && span == nil {
		if err := runTracesParallel(ctx, &res, p, mode, cfg, o, budget, warmFrac); err != nil {
			return res, err
		}
	} else {
		for t := 0; t < p.Traces; t++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return res, err
				}
			}
			st, err := runTraceStats(ctx, p, mode, cfg, o, budget, warmFrac, t)
			if err != nil {
				return res, err
			}
			res.Stats.Add(&st)
		}
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

// runTracesParallel runs every trace of the profile concurrently, each
// on its own engine over its own stream. Workers are spawned only while
// the global semaphore has free tokens (TryAcquire — a nested fan-out
// never blocks holding a token, which is what makes two-level
// parallelism deadlock-free); the calling goroutine always works too,
// so progress never depends on a token being free. Per-trace stats are
// combined in trace-index order after all traces finish: integer
// counters added in a fixed order make the aggregate bit-identical to
// the serial loop's.
func runTracesParallel(ctx context.Context, res *Result, p workload.Profile, mode pipeline.Mode,
	cfg pipeline.Config, o Options, budget int, warmFrac float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	stats := make([]pipeline.Stats, p.Traces)
	errs := make([]error, p.Traces)
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			t := int(next.Add(1)) - 1
			if t >= p.Traces {
				return
			}
			st, err := runTraceStats(ctx, p, mode, cfg, o, budget, warmFrac, t)
			stats[t], errs[t] = st, err
			if err != nil {
				cancel() // abort the remaining traces
			}
		}
	}

	sem := acquireSem()
	var wg sync.WaitGroup
	for w := 1; w < p.Traces && sem.TryAcquire(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sem.Release()
			work()
		}()
	}
	work()
	wg.Wait()

	if err := jobsError(errs, parent); err != nil {
		return err
	}
	for t := range stats {
		res.Stats.Add(&stats[t])
	}
	return nil
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

// runTraceStats simulates one hot-spot trace: warmup window, telemetry
// attach, measured window. When the context carries an active span the
// two windows get child spans and the measured window additionally
// aggregates per-optimizer-pass wall time into opt.<pass> spans.
func runTraceStats(ctx context.Context, p workload.Profile, mode pipeline.Mode,
	cfg pipeline.Config, o Options, budget int, warmFrac float64, t int) (pipeline.Stats, error) {
	var stream slotSource
	if o.DisableCache {
		prog, err := workload.Generate(p, t)
		if err != nil {
			return pipeline.Stats{}, err
		}
		stream = newCPUStream(prog)
	} else {
		rec, err := captures.get(p, t, budget)
		if err != nil {
			return pipeline.Stats{}, err
		}
		stream = &replayStream{rec: rec}
	}
	return runStreamStats(ctx, p.Name, stream, cfg, mode, o, budget, warmFrac, t)
}

// runStreamStats drives one engine over one correct-path stream: warmup
// window, telemetry attach, measured window. It is shared by the
// interpreter/capture path (runTraceStats) and the external-trace path
// (RunExternal); name and t only label telemetry runs, spans, and errors.
func runStreamStats(ctx context.Context, name string, stream slotSource, cfg pipeline.Config,
	mode pipeline.Mode, o Options, budget int, warmFrac float64, t int) (pipeline.Stats, error) {
	eng := pipeline.New(cfg, mode, stream)

	warm := uint64(float64(budget) * warmFrac)
	wctx, wspan := tracing.Start(ctx, "sim.warmup")
	wspan.SetAttr("trace", t)
	_, err := eng.RunContext(wctx, warm)
	wspan.End()
	if err != nil {
		return pipeline.Stats{}, err
	}
	// Telemetry attaches after warmup, so events, histograms, and
	// per-pass attribution cover exactly the measured window — the
	// same boundary ResetStats draws for the counters. Attaching per
	// engine (rather than toggling the collector) keeps a collector
	// shared across parallel runs race-free.
	if o.Telemetry != nil {
		run := o.Telemetry.NewRun(fmt.Sprintf("%s/%s/t%d", name, mode, t))
		eng.SetTelemetry(o.Telemetry, run)
	}
	// Probes attach at the same boundary. One loop stack per engine,
	// advanced once per retired slot, feeds every probe's loop view.
	if len(o.Probes) > 0 {
		fan := &probeFan{}
		for _, c := range o.Probes {
			p, done := c.Attach(t, &fan.loops)
			defer done()
			fan.probes = append(fan.probes, p)
		}
		eng.SetProbe(fan)
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
	if err == nil {
		if serr := stream.Err(); serr != nil {
			err = fmt.Errorf("sim %s trace %d: %w", name, t, serr)
		}
	}
	if agg != nil {
		agg.emit(mspan)
	}
	mspan.SetError(err)
	mspan.End()
	if err != nil {
		return pipeline.Stats{}, err
	}
	eng.CloseTelemetry()
	return eng.Stats(), nil
}

// probeFan is the engine's probe when collectors attach: it advances
// the engine's loop stack once per retired slot, then forwards every
// event to each collector's probe in attach order.
type probeFan struct {
	loops  reuse.LoopStack
	probes []pipeline.Probe
}

func (f *probeFan) SlotRetired(s pipeline.Slot, fromFrame bool, uopsExecuted int) {
	f.loops.Retire(&s)
	for _, p := range f.probes {
		p.SlotRetired(s, fromFrame, uopsExecuted)
	}
}

func (f *probeFan) FrameBuilt() {
	for _, p := range f.probes {
		p.FrameBuilt()
	}
}

func (f *probeFan) FrameHit() {
	for _, p := range f.probes {
		p.FrameHit()
	}
}

func (f *probeFan) FrameRetired(uops int) {
	for _, p := range f.probes {
		p.FrameRetired(uops)
	}
}

func (f *probeFan) OptRemoved(removed int) {
	for _, p := range f.probes {
		p.OptRemoved(removed)
	}
}

func (f *probeFan) Pass(pass string, killed, rewritten int) {
	for _, p := range f.probes {
		p.Pass(pass, killed, rewritten)
	}
}

func (f *probeFan) Evict() {
	for _, p := range f.probes {
		p.Evict()
	}
}

func (f *probeFan) CycleCharge(pc uint32, bin pipeline.Bin, n uint64) {
	for _, p := range f.probes {
		p.CycleCharge(pc, bin, n)
	}
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

// runJob is one (workload, mode, options) simulation request. When
// external is set the job replays that adapted trace instead of
// interpreting the workload profile.
type runJob struct {
	profile  workload.Profile
	external *ExternalRun
	mode     pipeline.Mode
	opts     Options
	out      *Result
	err      *error
}

// runProbed runs the jobs through runAll, each with a private collector
// from newCol attached, and returns the collectors and results in job
// order.
func runProbed[C Collector](ctx context.Context, jobs []runJob, o Options, newCol func() C) ([]C, []Result, error) {
	cols := make([]C, len(jobs))
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	for i := range jobs {
		cols[i] = newCol()
		jobs[i].opts = o
		jobs[i].opts.Probes = []Collector{cols[i]}
		jobs[i].out, jobs[i].err = &results[i], &errs[i]
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
			var r Result
			var err error
			if j.external != nil {
				r, err = RunExternal(ctx, *j.external, j.mode, j.opts)
			} else {
				r, err = RunWorkload(ctx, j.profile, j.mode, j.opts)
			}
			*j.out = r
			*j.err = err
			if err != nil {
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
