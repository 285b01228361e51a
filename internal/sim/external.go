package sim

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/tracing"
)

// ReplaySlack is how many slots beyond the instruction budget a replayed
// stream should carry so the engine's retirement overshoot and frame
// lookahead never hit a premature end-of-stream. Trace exporters pad
// their record streams by this much past the intended budget.
const ReplaySlack = captureSlack

// ExternalRun is an adapted external trace ready to simulate: the
// engine-ready slot stream (package xtrace produces these) plus the
// identity the run memo needs.
type ExternalRun struct {
	// Name labels results, telemetry, and errors.
	Name string
	// Fingerprint is the trace's content ID. Empty disables run
	// memoization (the memo must never alias two different streams).
	Fingerprint string
	// Slots is the retired slot stream.
	Slots []pipeline.Slot
	// Insts is the trace's intended instruction budget; 0 means the
	// whole slot stream.
	Insts int
}

// ExternalClass is the workload class reported for external-trace runs.
const ExternalClass = "external"

// RunExternal simulates an external trace under the mode, with the same
// warmup discipline, memoization, metrics, and span tracing as
// interpreter-backed runs. The run memo keys on the trace fingerprint,
// so a re-run of the same uploaded trace under the same configuration is
// served from memory.
func RunExternal(ctx context.Context, ext ExternalRun, mode pipeline.Mode, o Options) (Result, error) {
	ctx, span := tracing.Start(ctx, "sim.run")
	span.SetAttr("workload", ext.Name)
	span.SetAttr("mode", mode.String())
	span.SetAttr("external", true)
	res, err := runExternal(ctx, ext, mode, o)
	span.SetError(err)
	span.End()
	return res, err
}

func runExternal(ctx context.Context, ext ExternalRun, mode pipeline.Mode, o Options) (Result, error) {
	res := Result{Workload: ext.Name, Class: ExternalClass, Mode: mode}
	if len(ext.Slots) == 0 {
		return res, fmt.Errorf("sim: external trace %q has no slots", ext.Name)
	}
	budget := ext.Insts
	if budget <= 0 || budget > len(ext.Slots) {
		budget = len(ext.Slots)
	}
	if o.MaxInsts > 0 && o.MaxInsts < budget {
		budget = o.MaxInsts
	}
	warmFrac := o.WarmupFrac
	if warmFrac == 0 {
		warmFrac = 0.4
	}
	cfg := pipeline.DefaultConfig(mode)
	if o.ConfigMod != nil {
		o.ConfigMod(&cfg)
	}

	useMemo := ext.Fingerprint != "" && !o.DisableCache && !o.Telemetry.RequiresExecution() &&
		len(o.Probes) == 0
	var key memoKey
	if useMemo {
		key = memoKey{profile: "xtrace:" + ext.Fingerprint, mode: mode,
			budget: budget, warmFrac: warmFrac, config: cfg.Fingerprint()}
		if s, ok := memoGet(key); ok {
			res.Stats = s
			if o.Notify != nil {
				o.Notify(res)
			}
			return res, nil
		}
	}

	stream, ok := NewSlotStream(ext.Slots).(slotSource)
	if !ok {
		return res, fmt.Errorf("sim: external slot stream is not a correct-path source")
	}
	st, err := runStreamStats(ctx, ext.Name, stream, cfg, mode, o, budget, warmFrac, 0)
	if err != nil {
		return res, err
	}
	res.Stats = st
	recordRun(&res.Stats)
	if useMemo {
		memoPut(key, res.Stats)
	}
	if o.Notify != nil {
		o.Notify(res)
	}
	return res, nil
}
