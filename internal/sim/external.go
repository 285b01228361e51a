package sim

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
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
	// Name labels results, probe runs, and errors.
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

// Budget is the trace's default instruction budget: Insts, clamped to
// the slot stream's length.
func (e *ExternalRun) Budget() int {
	if e.Insts <= 0 || e.Insts > len(e.Slots) {
		return len(e.Slots)
	}
	return e.Insts
}

// ExternalClass is the workload class reported for external-trace runs.
const ExternalClass = "external"

// externalSource replays the trace as one trace, its budget capped at
// the slot stream's, memoized by its fingerprint.
func externalSource(ext ExternalRun) source {
	src := source{name: ext.Name, class: ExternalClass, traces: 1,
		budget: ext.Budget(), maxBudget: ext.Budget(),
		stream: func(int, int, bool) (slotSource, error) {
			if len(ext.Slots) == 0 {
				return nil, fmt.Errorf("sim: external trace %q has no slots", ext.Name)
			}
			return NewSlotStream(ext.Slots).(slotSource), nil
		}}
	if ext.Fingerprint != "" {
		src.memoID = inputID{xtrace: "xtrace:" + ext.Fingerprint}
	}
	return src
}

// RunExternal simulates an external trace under the mode, through the
// same driver as RunWorkload: warmup discipline, memoization, probes,
// metrics and span tracing. The run memo keys on the trace fingerprint,
// so a re-run of the same uploaded trace under the same configuration is
// served from memory.
func RunExternal(ctx context.Context, ext ExternalRun, mode pipeline.Mode, o Options) (Result, error) {
	return foldNow(run(ctx, externalSource(ext), mode, o))
}
