package sim

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/translate"
)

// ReplaySlack is how many slots beyond the instruction budget a replayed
// stream should carry so the engine's retirement overshoot and frame
// lookahead never hit a premature end-of-stream. Trace exporters pad
// their record streams by this much past the intended budget.
const ReplaySlack = captureSlack

// ExternalRun is an adapted external trace ready to simulate: its
// recording (package xtrace produces these) plus the identity the run
// memo needs.
type ExternalRun struct {
	// Name labels results, probe runs, and errors.
	Name string
	// Fingerprint is the trace's content ID. Empty disables run
	// memoization (the memo must never alias two different streams).
	Fingerprint string
	// Recording is the retired slot stream.
	Recording *translate.Recording
	// Insts is the trace's intended instruction budget; 0 means the
	// whole recording.
	Insts int
}

// Budget is the trace's default instruction budget: Insts, clamped to
// the recording's length.
func (e *ExternalRun) Budget() int {
	if n := e.Recording.Len(); e.Insts <= 0 || e.Insts > n {
		return n
	}
	return e.Insts
}

// CachedExternal returns the adapted run of the uploaded trace with
// content ID id from the capture cache, where it is charged by its
// recording's size like any capture. On a miss it calls adapt under the
// entry's build lock, so racing requests adapt the trace once.
// Adaptations count as capture builds, cached runs as capture hits.
func CachedExternal(id string, adapt func() (*ExternalRun, error)) (*ExternalRun, error) {
	e := captures.entry(captureKey{upload: id})
	e.build.Lock()
	defer e.build.Unlock()
	if ext := e.ext.Load(); ext != nil {
		metrics.captureHits.Add(1)
		return ext, nil
	}
	ext, err := adapt()
	if err != nil {
		return nil, err
	}
	metrics.captureBuilds.Add(1)
	e.ext.Store(ext)
	captures.charge(e, ext.Recording.SizeBytes())
	return ext, nil
}

// ExternalClass is the workload class reported for external-trace runs.
const ExternalClass = "external"

// externalSource replays the trace as one trace, its budget capped at
// the recording's, memoized by its fingerprint.
func externalSource(ext ExternalRun) source {
	rec := &recordedStream{Recording: *ext.Recording, atEnd: true}
	src := source{name: ext.Name, class: ExternalClass, traces: 1,
		budget: ext.Budget(), maxBudget: ext.Budget(),
		stream: func(int, int, bool) (slotSource, error) {
			if rec.Len() == 0 {
				return nil, fmt.Errorf("sim: external trace %q has no slots", ext.Name)
			}
			return &replayStream{rec: rec}, nil
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
	return run(ctx, externalSource(ext), mode, o)
}
