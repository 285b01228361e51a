// Package api defines the wire types of the replayd HTTP JSON API: the
// experiment request, its canonical (coalescing) form, job status and
// progress events, and the response rows. The rows reuse the driver's
// experiment types directly. Run, the one experiment dispatcher, maps a
// request onto those drivers for both replayd and replaysim, so a
// served job's result and replaysim -json are the same bytes.
package api

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Experiment names accepted by RunRequest.Experiment.
const (
	ExpFig6    = "fig6"
	ExpFig7    = "fig7"
	ExpFig8    = "fig8"
	ExpFig9    = "fig9"
	ExpFig10   = "fig10"
	ExpTable3  = "table3"
	ExpSummary = "summary"
	// ExpCell runs raw (workload, mode) simulation cells instead of a
	// whole figure: one cell per requested workload under Mode.
	ExpCell = "cell"
	// ExpAttr runs the RPO configuration with per-pass optimization
	// attribution: which optimizer pass killed or rewrote how many
	// micro-ops, per workload.
	ExpAttr = "attr"
	// ExpReuse runs the RPO configuration with loop-structure reuse
	// attribution: retired work and frame-lifecycle events per
	// {loop-depth bucket, instruction class}, trip-counted loops, and
	// the ranked representative workload subset.
	ExpReuse = "reuse"
	// ExpCycles runs the RPO configuration with the guest-cycle
	// profiler: every charged fetch cycle attributed to a guest PC and
	// fetch bin, joined against detected loop structure, per workload.
	// The resulting profile is also exportable as pprof/flame-text via
	// GET /debug/profile.
	ExpCycles = "cycles"
	// ExpDiff runs the ablation diff engine: baseline and variant
	// configurations each run once, probed, and their per-loop × per-pass
	// partitions join into a conservation-exact delta report whose
	// top-line verdicts follow each delta's sign. The request's own
	// Mode/Config/XTrace describe the baseline side; the Diff spec
	// describes the variant.
	ExpDiff = "diff"
)

// Experiments lists every accepted experiment name.
var Experiments = []string{ExpFig6, ExpFig7, ExpFig8, ExpFig9, ExpFig10, ExpTable3, ExpSummary, ExpCell, ExpAttr, ExpReuse, ExpCycles, ExpDiff}

// ConfigOverrides carries the per-request Table 2 edits the service
// accepts. Zero fields keep the mode's default; the names mirror
// pipeline.Config.
type ConfigOverrides struct {
	// OptScope: "block", "inter" or "frame".
	OptScope string `json:"opt_scope,omitempty"`
	// DisableOpts disables optimizations by name:
	// asst, cp, cse, nop, ra, sf, spec.
	DisableOpts []string `json:"disable_opts,omitempty"`

	Width           int `json:"width,omitempty"`
	WindowSize      int `json:"window_size,omitempty"`
	FrameCacheUOps  int `json:"frame_cache_uops,omitempty"`
	MaxFrameUOps    int `json:"max_frame_uops,omitempty"`
	OptCyclesPerUOp int `json:"opt_cycles_per_uop,omitempty"`
	OptPipeDepth    int `json:"opt_pipe_depth,omitempty"`
}

// RunRequest asks the service for one experiment over the workload set.
type RunRequest struct {
	// Experiment is one of the Experiments names.
	Experiment string `json:"experiment"`
	// Workloads restricts the sweep; empty means the experiment's
	// default set (all 14 applications, or the paper's subset for
	// fig7/fig8/fig10).
	Workloads []string `json:"workloads,omitempty"`
	// Insts overrides the per-trace x86 instruction budget when > 0.
	Insts int `json:"insts,omitempty"`
	// WarmupFrac overrides the warmup fraction when > 0.
	WarmupFrac float64 `json:"warmup_frac,omitempty"`
	// Mode selects the processor configuration for cell runs:
	// IC, TC, RP or RPO (default RPO).
	Mode string `json:"mode,omitempty"`
	// Config applies Table 2 overrides before the run.
	Config *ConfigOverrides `json:"config,omitempty"`
	// Trace records frame-lifecycle events for the job and makes them
	// retrievable as Chrome trace_event JSON from /debug/trace?job=ID.
	// Tracing forces execution (no run-memo hits) and deliberately splits
	// the coalescing key, so a traced job never attaches to an untraced
	// one that would produce no events.
	Trace bool `json:"trace,omitempty"`
	// XTrace runs an uploaded external trace (POST /v1/traces) instead
	// of a built-in workload: it names the trace by content ID. Valid
	// with the cell experiment (the default when set), with reuse (the
	// trace decomposes and ranks alongside any listed workloads), and
	// with diff (the trace is the baseline side). Being part of the
	// canonical form, it participates in coalescing and run memoization
	// like any workload name.
	XTrace string `json:"xtrace,omitempty"`
	// Diff describes the variant side of a diff experiment; required
	// with (and only valid with) ExpDiff.
	Diff *DiffSpec `json:"diff,omitempty"`
}

// DiffSpec is the variant side of a diff request. The baseline side is
// the request's own Mode/Config/XTrace/Workloads; the variant inherits
// the baseline's workload source unless XTrace redirects it.
type DiffSpec struct {
	// Label names the variant in reports (defaults to a rendering of
	// the spec).
	Label string `json:"label,omitempty"`
	// Mode overrides the variant's fetch engine (IC, TC, RP, RPO);
	// empty inherits the baseline's.
	Mode string `json:"mode,omitempty"`
	// Config applies Table 2 overrides to the variant side only. The
	// variant does NOT inherit the baseline's Config; each side's
	// overrides are spelled out in full.
	Config *ConfigOverrides `json:"config,omitempty"`
	// XTrace makes the variant replay an uploaded trace instead of the
	// baseline's source, e.g. to compare an upload against its synthetic
	// clone. The baseline must then be a single source (an xtrace or
	// exactly one workload).
	XTrace string `json:"xtrace,omitempty"`
}

// Canonical returns the request in canonical form: names are trimmed
// and case-folded, defaults that affect identity are filled in, and the
// optimization-disable list is sorted and deduplicated. Two requests
// for the same underlying work canonicalize equal.
func (r RunRequest) Canonical() RunRequest {
	c := r
	c.Experiment = strings.ToLower(strings.TrimSpace(r.Experiment))
	c.Mode = strings.ToUpper(strings.TrimSpace(r.Mode))
	c.XTrace = strings.ToLower(strings.TrimSpace(r.XTrace))
	if c.XTrace != "" && c.Experiment == "" {
		c.Experiment = ExpCell
	}
	switch c.Experiment {
	case ExpCell, ExpDiff:
		// Mode names the (baseline) fetch engine for cell and diff runs.
		if c.Mode == "" {
			c.Mode = "RPO"
		}
	default:
		c.Mode = ""
	}
	if c.Experiment == ExpFig10 {
		// Figure 10 runs the paper's fixed five-application subset; a
		// workload list would be silently ignored, so it must not split
		// the coalescing key.
		r.Workloads = nil
	}
	// A list of blank names canonicalizes to no list, as an absent one.
	c.Workloads = nil
	for _, w := range r.Workloads {
		if w = strings.ToLower(strings.TrimSpace(w)); w != "" {
			c.Workloads = append(c.Workloads, w)
		}
	}
	c.Config = canonicalConfig(r.Config)
	if c.Experiment == ExpDiff {
		var d DiffSpec
		if r.Diff != nil {
			d = *r.Diff
		}
		d.Label = strings.TrimSpace(d.Label)
		d.Mode = strings.ToUpper(strings.TrimSpace(d.Mode))
		d.XTrace = strings.ToLower(strings.TrimSpace(d.XTrace))
		d.Config = canonicalConfig(d.Config)
		c.Diff = &d
	} else {
		c.Diff = nil
	}
	return c
}

func canonicalConfig(in *ConfigOverrides) *ConfigOverrides {
	if in == nil {
		return nil
	}
	cfg := *in
	cfg.OptScope = strings.ToLower(strings.TrimSpace(cfg.OptScope))
	if len(cfg.DisableOpts) > 0 {
		ds := make([]string, 0, len(cfg.DisableOpts))
		for _, d := range cfg.DisableOpts {
			if d = strings.ToLower(strings.TrimSpace(d)); d != "" {
				ds = append(ds, d)
			}
		}
		sort.Strings(ds)
		cfg.DisableOpts = dedupe(ds)
	}
	if cfg.isZero() {
		return nil
	}
	return &cfg
}

// isZero reports whether the overrides carry no edits, so an explicit
// empty config coalesces with an absent one.
func (c ConfigOverrides) isZero() bool {
	return c.OptScope == "" && len(c.DisableOpts) == 0 &&
		c.Width == 0 && c.WindowSize == 0 && c.FrameCacheUOps == 0 &&
		c.MaxFrameUOps == 0 && c.OptCyclesPerUOp == 0 && c.OptPipeDepth == 0
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Key is the coalescing identity of the request: the JSON encoding of
// its canonical form. Concurrent submissions with equal keys share one
// execution.
func (r RunRequest) Key() string {
	b, err := json.Marshal(r.Canonical())
	if err != nil {
		// Every field is a plain value type; Marshal cannot fail.
		panic("api: marshal canonical request: " + err.Error())
	}
	return string(b)
}

// Validate rejects unknown experiment, workload or mode names and
// out-of-range config overrides up front, before the request is queued.
func (r RunRequest) Validate() error {
	c := r.Canonical()
	known := false
	for _, e := range Experiments {
		if c.Experiment == e {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (want one of %s)", r.Experiment, strings.Join(Experiments, ", "))
	}
	for _, name := range c.Workloads {
		if _, err := workload.ByName(name); err != nil {
			return err
		}
	}
	if c.Experiment == ExpCell || c.Experiment == ExpDiff {
		if _, err := ParseMode(c.Mode); err != nil {
			return err
		}
	}
	if c.XTrace != "" {
		switch c.Experiment {
		case ExpCell, ExpDiff:
			if len(c.Workloads) > 0 {
				return fmt.Errorf("xtrace and workloads are mutually exclusive")
			}
		case ExpReuse:
			// The trace decomposes alongside any listed workloads.
		default:
			return fmt.Errorf("xtrace runs only support the cell, reuse and diff experiments, not %q", c.Experiment)
		}
	}
	if err := validateConfig(c.Config); err != nil {
		return err
	}
	if r.Diff != nil && c.Experiment != ExpDiff {
		return fmt.Errorf("diff spec is only valid with the diff experiment, not %q", c.Experiment)
	}
	if c.Experiment == ExpDiff {
		if r.Diff == nil {
			return fmt.Errorf("diff experiment needs a diff spec (the variant side)")
		}
		d := c.Diff
		if d.Mode != "" {
			if _, err := ParseMode(d.Mode); err != nil {
				return err
			}
		}
		if err := validateConfig(d.Config); err != nil {
			return err
		}
		if d.XTrace != "" && c.XTrace == "" && len(c.Workloads) != 1 {
			return fmt.Errorf("a trace-variant diff needs a single-source baseline (an xtrace or exactly one workload)")
		}
	}
	return nil
}

// Ranges of the numeric overrides. Each admits the Table 2 defaults and
// the paper's 8-256 frame-size ablation, with headroom; outside them a
// request describes no machine worth building (pipeline.New sizes its
// retire ring and optimizer slots from width and opt_pipe_depth). The
// width floor is the translator's longest flow, CALL through memory:
// the ICache path fetches an instruction's whole flow in one group, so
// a narrower machine never fetches it.
const (
	minWidth           = 5
	maxWidth           = 64
	maxWindowSize      = 8192
	maxFrameCacheUOps  = 1 << 20
	maxFrameUOps       = 1024
	maxOptCyclesPerUOp = 1000
	maxOptPipeDepth    = 64
)

func validateConfig(c *ConfigOverrides) error {
	if c == nil {
		return nil
	}
	switch c.OptScope {
	case "", "block", "inter", "frame":
	default:
		return fmt.Errorf("unknown opt_scope %q (want block, inter or frame)", c.OptScope)
	}
	for _, d := range c.DisableOpts {
		switch d {
		case "asst", "cp", "cse", "nop", "ra", "sf", "spec":
		default:
			return fmt.Errorf("unknown optimization %q in disable_opts", d)
		}
	}
	for _, f := range []struct {
		name      string
		v, lo, hi int
	}{
		{"width", c.Width, minWidth, maxWidth},
		{"window_size", c.WindowSize, 1, maxWindowSize},
		{"frame_cache_uops", c.FrameCacheUOps, 1, maxFrameCacheUOps},
		{"max_frame_uops", c.MaxFrameUOps, 1, maxFrameUOps},
		{"opt_cycles_per_uop", c.OptCyclesPerUOp, 1, maxOptCyclesPerUOp},
		{"opt_pipe_depth", c.OptPipeDepth, 1, maxOptPipeDepth},
	} {
		if f.v != 0 && (f.v < f.lo || f.v > f.hi) {
			return fmt.Errorf("%s %d out of range (want %d-%d, or 0 for the default)", f.name, f.v, f.lo, f.hi)
		}
	}
	// A fetch group must fit the scheduling window: a wider one does not
	// fit even an empty window, and the window-full stall then has no
	// in-flight micro-op to wait on.
	cfg := pipeline.DefaultConfig(pipeline.ModeRePLayOpt)
	c.Mod()(&cfg)
	if cfg.Width > cfg.WindowSize {
		return fmt.Errorf("width %d exceeds window_size %d", cfg.Width, cfg.WindowSize)
	}
	return nil
}

// ParseDiffSpec parses the compact variant notation the CLIs accept
// for -vs: a comma-separated token list where a bare token disables
// that optimization on the variant side (asst, cp, cse, nop, ra, sf,
// spec), "scope=block|inter|frame" narrows the optimizer scope,
// "mode=IC|TC|RP|RPO" switches the fetch engine, and "xtrace=ID"
// replays an uploaded trace as the variant. The spec's label defaults to the input string.
func ParseDiffSpec(s string) (*DiffSpec, error) {
	d := &DiffSpec{Label: strings.TrimSpace(s)}
	var disable []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, isKV := strings.Cut(tok, "=")
		if !isKV {
			disable = append(disable, strings.ToLower(key))
			continue
		}
		val = strings.TrimSpace(val)
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "scope":
			if d.Config == nil {
				d.Config = &ConfigOverrides{}
			}
			d.Config.OptScope = strings.ToLower(val)
		case "mode":
			d.Mode = strings.ToUpper(val)
		case "xtrace":
			d.XTrace = strings.ToLower(val)
		default:
			return nil, fmt.Errorf("unknown token %q in diff spec (want an optimization name, scope=, mode= or xtrace=)", tok)
		}
	}
	if len(disable) > 0 {
		if d.Config == nil {
			d.Config = &ConfigOverrides{}
		}
		d.Config.DisableOpts = disable
	}
	// Round-trip through a throwaway request to reuse the canonical
	// validation of names.
	probe := RunRequest{Experiment: ExpDiff, Diff: d}
	if d.XTrace != "" {
		probe.XTrace = d.XTrace // stand-in single-source baseline
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Mod translates the overrides into a Table 2 config edit (nil receiver
// means no edit). Both replayd and the CLIs apply wire overrides through
// this one translation, so a spec means the same machine everywhere.
func (o *ConfigOverrides) Mod() func(*pipeline.Config) {
	if o == nil {
		return nil
	}
	ov := *o
	return func(c *pipeline.Config) {
		switch ov.OptScope {
		case "block":
			c.OptScope = opt.ScopeIntraBlock
		case "inter":
			c.OptScope = opt.ScopeInterBlock
		case "frame":
			c.OptScope = opt.ScopeFrame
		}
		for _, d := range ov.DisableOpts {
			switch d {
			case "asst":
				c.OptOptions.Assert = false
			case "cp":
				c.OptOptions.CP = false
			case "cse":
				c.OptOptions.CSE = false
			case "nop":
				c.OptOptions.NOP = false
			case "ra":
				c.OptOptions.RA = false
			case "sf":
				c.OptOptions.SF = false
			case "spec":
				c.OptOptions.Speculative = false
			}
		}
		if ov.Width > 0 {
			c.Width = ov.Width
		}
		if ov.WindowSize > 0 {
			c.WindowSize = ov.WindowSize
		}
		if ov.FrameCacheUOps > 0 {
			c.FrameCacheUOps = ov.FrameCacheUOps
		}
		if ov.MaxFrameUOps > 0 {
			c.FrameCfg.MaxUOps = ov.MaxFrameUOps
		}
		if ov.OptCyclesPerUOp > 0 {
			c.OptCyclesPerUOp = ov.OptCyclesPerUOp
		}
		if ov.OptPipeDepth > 0 {
			c.OptPipeDepth = ov.OptPipeDepth
		}
	}
}

// ParseMode maps a wire mode name to the pipeline configuration.
func ParseMode(s string) (pipeline.Mode, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "IC":
		return pipeline.ModeICache, nil
	case "TC":
		return pipeline.ModeTraceCache, nil
	case "RP":
		return pipeline.ModeRePLay, nil
	case "", "RPO":
		return pipeline.ModeRePLayOpt, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want IC, TC, RP or RPO)", s)
}

// Cell is one raw (workload, mode) simulation result.
type Cell struct {
	Workload string         `json:"workload"`
	Class    string         `json:"class"`
	Mode     string         `json:"mode"`
	IPC      float64        `json:"ipc"`
	Stats    pipeline.Stats `json:"stats"`
}

// RunResponse carries an experiment's rows. Exactly the fields the
// experiment produces are set: fig7/fig8 fill Breakdown, summary fills
// Fig6 and Table3 together, cell fills Cells.
type RunResponse struct {
	Experiment string             `json:"experiment"`
	Fig6       []sim.Fig6Row      `json:"fig6,omitempty"`
	Breakdown  []sim.BreakdownRow `json:"breakdown,omitempty"`
	Table3     []sim.Table3Row    `json:"table3,omitempty"`
	Fig9       []sim.Fig9Row      `json:"fig9,omitempty"`
	Fig10      []sim.Fig10Row     `json:"fig10,omitempty"`
	Cells      []Cell             `json:"cells,omitempty"`
	Attr       []sim.AttrRow      `json:"attr,omitempty"`
	Reuse      *sim.ReuseReport   `json:"reuse,omitempty"`
	Cycles     *sim.CycleReport   `json:"cycles,omitempty"`
	Diff       *sim.DiffReport    `json:"diff,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is the wire view of one queued/running/finished job.
type Job struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`
	// TraceID names the span trace the job's execution records into
	// (the submitting request's trace, continued from its traceparent
	// header when one was sent). Fetch it from /debug/traces/{id} once
	// the job finishes. Empty when the server's tracer is disabled.
	TraceID string `json:"trace_id,omitempty"`
	// Coalesced is set on submission responses when the request
	// attached to an already in-flight job instead of enqueuing a new
	// one.
	Coalesced bool         `json:"coalesced,omitempty"`
	Error     string       `json:"error,omitempty"`
	Result    *RunResponse `json:"result,omitempty"`
	QueuedAt  time.Time    `json:"queued_at"`
	StartedAt time.Time    `json:"started_at"`
	DoneAt    time.Time    `json:"done_at"`
}

// Event is one line of a job's progress stream.
type Event struct {
	Seq int `json:"seq"`
	// JobID names the job the event belongs to; it matches the job_id
	// attribute on the daemon's structured log lines, so a log line and
	// a progress stream can be joined on it.
	JobID string `json:"job,omitempty"`
	State string `json:"state,omitempty"`
	// Msg describes the completed step, e.g. "bzip2/RPO done".
	Msg string `json:"msg,omitempty"`
	// Done/Total count completed simulation runs when known.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}
