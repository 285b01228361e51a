// Package repro is the public API of the reproduction of "Dynamic
// Optimization of Micro-Operations" (Slechta et al., HPCA 2003): a
// complete rePLay-style x86 micro-operation dynamic optimization system —
// IA-32 decode, micro-op translation, frame construction, the
// seven-optimization engine, and a cycle-level 8-wide timing model —
// together with the synthetic workload suite and the experiment harness
// that regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	r, err := repro.Run("bzip2", repro.RPO)
//	fmt.Printf("IPC %.2f, micro-ops removed %.0f%%\n", r.IPC, 100*r.UOpReduction)
//
// The four processor configurations of the paper's Figure 6 are IC (a
// 64kB instruction cache), TC (trace cache), RP (basic rePLay) and RPO
// (rePLay with the optimizing engine).
package repro

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Mode is a processor configuration from Figure 6.
type Mode = pipeline.Mode

// The four evaluated configurations.
const (
	IC  = pipeline.ModeICache
	TC  = pipeline.ModeTraceCache
	RP  = pipeline.ModeRePLay
	RPO = pipeline.ModeRePLayOpt
)

// Scope selects the optimization scope (Section 3 / Figure 9).
type Scope = opt.Scope

// Optimization scopes.
const (
	IntraBlock = opt.ScopeIntraBlock
	InterBlock = opt.ScopeInterBlock
	FrameLevel = opt.ScopeFrame
)

// WorkloadInfo describes one application of the workload set (Table 1).
type WorkloadInfo struct {
	Name   string
	Class  string // "SPECint", "Business" or "Content"
	Traces int    // hot-spot trace count
	Insts  int    // per-trace x86 instruction budget (scaled)
}

// Workloads lists the 14 applications of the experimental workload.
func Workloads() []WorkloadInfo {
	out := make([]WorkloadInfo, 0, len(workload.Profiles))
	for _, p := range workload.Profiles {
		out = append(out, WorkloadInfo{Name: p.Name, Class: p.Class, Traces: p.Traces, Insts: p.XInsts})
	}
	return out
}

// Result summarizes one workload simulation.
type Result struct {
	Workload string
	Mode     Mode

	IPC           float64 // retired x86 instructions per cycle
	Cycles        uint64
	X86Retired    uint64
	UOpReduction  float64 // fraction of dynamic micro-ops removed
	LoadReduction float64 // fraction of dynamic loads removed
	FrameCoverage float64 // fraction of micro-ops fetched from frames
	AssertRate    float64 // fraction of frame fetches that aborted

	// CycleBins is the fetch-cycle classification of Figures 7-8
	// (assert, mispred, miss, stall, wait, frame, icache).
	CycleBins map[string]uint64
}

// Option configures a Run.
type Option func(*runConfig)

type runConfig struct {
	opts sim.Options
}

// WithInstructionBudget overrides the per-trace x86 instruction budget.
func WithInstructionBudget(n int) Option {
	return func(c *runConfig) { c.opts.MaxInsts = n }
}

// WithScope sets the optimization scope (frame-level by default).
func WithScope(s Scope) Option {
	return func(c *runConfig) {
		c.chain(func(cfg *pipeline.Config) { cfg.OptScope = s })
	}
}

// WithoutOptimization disables individual optimizations by name:
// "asst", "cp", "cse", "nop", "ra", "sf", "spec".
func WithoutOptimization(names ...string) Option {
	return func(c *runConfig) {
		c.chain((&api.ConfigOverrides{DisableOpts: names}).Mod())
	}
}

// WithRescheduling enables the Section 4 position-field rescheduling:
// the optimizer emits frames in critical-path-first issue order.
func WithRescheduling() Option {
	return func(c *runConfig) {
		c.chain(func(cfg *pipeline.Config) { cfg.OptReschedule = true })
	}
}

// WithConfig applies an arbitrary edit to the Table 2 processor
// configuration before the run (frame size limits, optimizer latency,
// cache sizes, ...).
func WithConfig(mod func(*pipeline.Config)) Option {
	return func(c *runConfig) { c.chain(mod) }
}

func (c *runConfig) chain(mod func(*pipeline.Config)) {
	prev := c.opts.ConfigMod
	c.opts.ConfigMod = func(cfg *pipeline.Config) {
		if prev != nil {
			prev(cfg)
		}
		mod(cfg)
	}
}

// Run simulates one workload under the given configuration and returns
// its summary.
func Run(name string, mode Mode, options ...Option) (Result, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return Result{}, err
	}
	var rc runConfig
	for _, o := range options {
		o(&rc)
	}
	r, err := sim.RunWorkload(context.Background(), p, mode, rc.opts)
	if err != nil {
		return Result{}, err
	}
	return resultOf(r), nil
}

func resultOf(r sim.Result) Result {
	s := r.Stats
	out := Result{
		Workload:      r.Workload,
		Mode:          r.Mode,
		IPC:           r.IPC(),
		Cycles:        s.Cycles,
		X86Retired:    s.X86Retired,
		UOpReduction:  s.UOpReduction(),
		LoadReduction: s.LoadReduction(),
		FrameCoverage: s.FrameCoverage(),
		CycleBins:     make(map[string]uint64, int(pipeline.NumBins)),
	}
	if s.FrameFetches > 0 {
		out.AssertRate = float64(s.FrameAborts) / float64(s.FrameFetches)
	}
	for b := pipeline.Bin(0); b < pipeline.NumBins; b++ {
		out.CycleBins[b.String()] = s.Bins[b]
	}
	return out
}

// ProcessorConfig returns the Table 2 configuration for a mode, for
// inspection or as a base for WithConfig edits.
func ProcessorConfig(mode Mode) pipeline.Config { return pipeline.DefaultConfig(mode) }

// ByClass returns the profile names of one workload class, or all names
// for "".
func ByClass(class string) []string {
	var names []string
	for _, p := range workload.Profiles {
		if class == "" || p.Class == class {
			names = append(names, p.Name)
		}
	}
	return names
}

// Validate checks that a workload name exists.
func Validate(name string) error {
	_, err := workload.ByName(name)
	if err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}
