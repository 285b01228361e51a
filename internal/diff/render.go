package diff

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// WriteReport renders one workload's comparison as text: the top-line
// metrics with their deltas and verdicts, the per-pass removal deltas,
// the heaviest per-loop deltas with signed delta bars, and the
// conservation residuals. Both replaysim and replayctl render through this one
// function, so a diff reads identically from either surface.
func WriteReport(w io.Writer, workload, class string, r *Report) {
	fmt.Fprintf(w, "%s (%s): %s vs %s\n", workload, class, r.Baseline.Label, r.Variant.Label)

	t := stats.NewTable("Metric", r.Baseline.Label, r.Variant.Label, "Delta", "Verdict")
	for _, m := range r.Metrics {
		t.Row(m.Name,
			fmt.Sprintf("%.4g", m.Base),
			fmt.Sprintf("%.4g", m.Var),
			fmt.Sprintf("%+.4g", m.Delta),
			m.Verdict)
	}
	t.Write(w)

	if len(r.Passes) > 0 {
		fmt.Fprintln(w, "\nper-pass removal delta (variant − baseline):")
		pt := stats.NewTable("Pass", "Killed (base)", "Killed (var)", "ΔKilled", "ΔRewritten")
		for _, p := range r.Passes {
			pt.Row(p.Pass, p.BaseKilled, p.VarKilled,
				fmt.Sprintf("%+d", p.DKilled), fmt.Sprintf("%+d", p.DRewritten))
		}
		pt.Write(w)
	}

	loops := r.Loops
	const maxLoops = 10
	if len(loops) > maxLoops {
		loops = loops[:maxLoops]
	}
	if len(loops) > 0 {
		fmt.Fprintln(w, "\nheaviest per-loop deltas (variant − baseline, by |Δcycles|):")
		lt := stats.NewTable("Loop", "Nest", "ΔCycles", "ΔUops removed", "ΔUops retired", "ΔFrame hits", "Top pass")
		for i := range loops {
			l := &loops[i]
			lt.Row(loopLabel(l), l.Nest,
				fmt.Sprintf("%+d", l.DCycles),
				fmt.Sprintf("%+d", l.DOptRemoved),
				fmt.Sprintf("%+d", l.DUOpsRetired),
				fmt.Sprintf("%+d", l.DFrameHits),
				topPass(l))
		}
		lt.Write(w)

		var maxAbs int64
		for i := range loops {
			if a := absI64(loops[i].DCycles); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs > 0 {
			fmt.Fprintln(w, "\nΔcycles per loop (◄ fewer cycles than baseline, ► more):")
			for i := range loops {
				deltaBar(w, loopLabel(&loops[i]), loops[i].DCycles, maxAbs)
			}
		}
	}

	if r.ResidualUOpsRemoved == 0 && r.ResidualCycles == 0 {
		fmt.Fprintln(w, "\nconservation: all removed micro-ops and cycle deltas attributed (residual 0)")
	} else {
		fmt.Fprintf(w, "\nWARNING: unattributed delta: uops_removed=%d cycles=%d\n",
			r.ResidualUOpsRemoved, r.ResidualCycles)
	}
}

// loopLabel names one joined row the way the cycle profiler does.
func loopLabel(l *LoopDelta) string {
	if l.Straight {
		return fmt.Sprintf("t%d:straight", l.Trace)
	}
	return fmt.Sprintf("t%d:0x%04x-0x%04x", l.Trace, l.Header, l.Tail)
}

// topPass names the pass whose kill count moved the most in this loop.
func topPass(l *LoopDelta) string {
	best, bestVal := "", int64(0)
	for _, p := range l.Passes {
		if absI64(p.DKilled) > absI64(bestVal) {
			best, bestVal = p.Pass, p.DKilled
		}
	}
	if best == "" {
		return "-"
	}
	return fmt.Sprintf("%s (%+d)", best, bestVal)
}

// deltaBar draws one signed magnitude bar: improvements (negative cycle
// deltas) grow left from the axis, regressions right.
func deltaBar(w io.Writer, label string, delta, maxAbs int64) {
	const half = 30
	n := int(absI64(delta) * half / maxAbs)
	if n == 0 && delta != 0 {
		n = 1
	}
	left, right := "", ""
	if delta < 0 {
		left = strings.Repeat("◄", n)
	} else if delta > 0 {
		right = strings.Repeat("►", n)
	}
	fmt.Fprintf(w, "%24s %*s|%-*s %+d\n", label, half, left, half, right, delta)
}
