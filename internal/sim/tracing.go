package sim

import (
	"sync"
	"time"

	"repro/internal/tracing"
)

// passAgg accumulates wall-clock optimizer pass timing for one traced
// engine run (opt.TimedPassRecorder). Passes run thousands of times per
// run, far too many for one span each; instead the totals are emitted
// as one synthesized child span per pass when the run's span closes.
type passAgg struct {
	mu     sync.Mutex
	order  []string
	totals map[string]*passTotal
}

type passTotal struct {
	calls     uint64
	killed    uint64
	rewritten uint64
	dur       time.Duration
}

func newPassAgg() *passAgg {
	return &passAgg{totals: map[string]*passTotal{}}
}

// RecordPassTimed folds one pass invocation into the totals.
func (a *passAgg) RecordPassTimed(frameID uint64, pass string, killed, rewritten int, d time.Duration) {
	a.mu.Lock()
	t := a.totals[pass]
	if t == nil {
		t = &passTotal{}
		a.totals[pass] = t
		a.order = append(a.order, pass)
	}
	t.calls++
	t.killed += uint64(killed)
	t.rewritten += uint64(rewritten)
	t.dur += d
	a.mu.Unlock()
}

// emit synthesizes one child span per pass under parent, stacked
// back-to-back ending at now. The layout is synthetic (pass work is
// interleaved across the run, not contiguous), but each span's duration
// is the pass's true accumulated wall time, so the flame view reads as
// a per-pass time budget.
func (a *passAgg) emit(parent *tracing.Span) {
	if parent == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cursor := time.Now()
	for i := len(a.order) - 1; i >= 0; i-- {
		pass := a.order[i]
		t := a.totals[pass]
		start := cursor.Add(-t.dur)
		parent.EmitChild("opt."+pass, start, cursor, map[string]any{
			"calls":     t.calls,
			"killed":    t.killed,
			"rewritten": t.rewritten,
		})
		cursor = start
	}
}
