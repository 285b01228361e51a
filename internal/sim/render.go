package sim

import (
	"fmt"
	"io"

	"repro/internal/diff"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// The text views of the probe reports. replaysim prints them under its
// experiment headings and replayctl under its job headings, so a report
// reads the same whether it was computed locally or fetched from replayd.

// fetchBins is the column order of the fetch-bin breakdowns.
var fetchBins = []pipeline.Bin{pipeline.BinAssert, pipeline.BinMispred, pipeline.BinMiss,
	pipeline.BinStall, pipeline.BinWait, pipeline.BinFrame, pipeline.BinICache}

// WriteText renders the reuse report: the per-workload depth-bucket
// decomposition of retired work, the reuse-mass bars, and the ranked
// representative subset.
func (r *ReuseReport) WriteText(w io.Writer) {
	t := stats.NewTable("Workload", "Loops", "Loop uops", "Straight", "d1", "d2", "d3+", "Top trip", "Hit/d1+")
	for i := range r.Rows {
		row := &r.Rows[i]
		var topTrip float64
		if len(row.Report.TopLoops) > 0 {
			topTrip = row.Report.TopLoops[0].TripCount()
		}
		var loopHits uint64
		for b := 1; b < len(row.Report.Buckets); b++ {
			loopHits += row.Report.Buckets[b].FrameHits
		}
		pct := func(b int) string {
			if row.Report.TotalUOps == 0 {
				return "0%"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(row.Report.Bucket(b).UOps)/float64(row.Report.TotalUOps))
		}
		t.Row(row.Workload, row.Report.Loops,
			fmt.Sprintf("%.0f%%", 100*row.Report.LoopFrac()),
			pct(0), pct(1), pct(2), pct(3),
			fmt.Sprintf("%.1f", topTrip), loopHits)
	}
	t.Write(w)

	fmt.Fprintln(w, "\nreuse-mass fraction (baseline uops retired inside loops):")
	for i := range r.Rows {
		stats.Bar(w, r.Rows[i].Workload, r.Rows[i].Report.LoopFrac(), 1.0, 50, "%.2f")
	}

	fmt.Fprintln(w, "\n== Representative subset (greedy, covered reuse mass per simulated instruction) ==")
	st := stats.NewTable("Rank", "Workload", "Gain", "Coverage", "Cost share")
	for _, p := range r.Subset {
		st.Row(p.Rank, p.Name,
			fmt.Sprintf("%.3f", p.Gain),
			fmt.Sprintf("%.1f%%", 100*p.Coverage),
			fmt.Sprintf("%.1f%%", 100*p.CostFrac))
	}
	st.Write(w)
}

// WriteText renders the guest-cycle profile: the per-bin split of
// attributed fetch cycles (which sums to the measured cycle count
// exactly), the stacked composition bars, and per workload the
// loop-joined hotspots and the heaviest individual PCs.
func (r *CycleReport) WriteText(w io.Writer) {
	t := stats.NewTable("Workload", "IPC", "Cycles", "PCs", "Loops",
		"assert", "mispred", "miss", "stall", "wait", "frame", "icache")
	for i := range r.Rows {
		row := &r.Rows[i]
		cells := []interface{}{row.Workload, fmt.Sprintf("%.3f", row.IPC),
			row.Report.Cycles, len(row.Report.PCs), len(row.Report.Loops)}
		for _, b := range fetchBins {
			cells = append(cells, fmt.Sprintf("%.0f%%", 100*row.Report.BinFrac(b)))
		}
		t.Row(cells...)
	}
	t.Write(w)

	fmt.Fprintln(w, "\nstacked composition (a=assert m=mispred M=miss s=stall w=wait F=frame I=icache):")
	runes := []rune{'a', 'm', 'M', 's', 'w', 'F', 'I'}
	var maxCycles float64
	for i := range r.Rows {
		if c := float64(r.Rows[i].Report.Cycles); c > maxCycles {
			maxCycles = c
		}
	}
	for i := range r.Rows {
		row := &r.Rows[i]
		segs := make([]float64, len(fetchBins))
		for j, b := range fetchBins {
			segs[j] = float64(row.Report.Bins[b])
		}
		stats.StackedBar(w, row.Workload, segs, runes, maxCycles, 70)
	}

	for i := range r.Rows {
		row := &r.Rows[i]
		total := float64(max(row.Report.Cycles, 1))
		fmt.Fprintf(w, "\n%s (%s): hottest loops\n", row.Workload, row.Class)
		lt := stats.NewTable("Loop", "Nest", "Trips", "Cycles", "% of run", "IPC", "mispred", "frame", "cover")
		loops := row.Report.Loops
		if len(loops) > 8 {
			loops = loops[:8]
		}
		for j := range loops {
			l := &loops[j]
			lt.Row(fmt.Sprintf("t%d:0x%04x-0x%04x", l.Trace, l.Header, l.Tail),
				l.Nest, fmt.Sprintf("%.1f", l.Trips), l.Cycles,
				fmt.Sprintf("%.1f%%", 100*float64(l.Cycles)/total),
				fmt.Sprintf("%.3f", l.IPC()),
				fmt.Sprintf("%.0f%%", 100*l.BinFrac(pipeline.BinMispred)),
				fmt.Sprintf("%.0f%%", 100*l.BinFrac(pipeline.BinFrame)),
				fmt.Sprintf("%.0f%%", 100*l.CoverFrac()))
		}
		lt.Write(w)

		fmt.Fprintf(w, "\n%s: hottest PCs\n", row.Workload)
		pt := stats.NewTable("PC", "Cycles", "% of run", "x86", "uops")
		for _, p := range row.Report.TopPCs(8) {
			pt.Row(fmt.Sprintf("t%d:0x%04x", p.Trace, p.PC), p.Cycles,
				fmt.Sprintf("%.1f%%", 100*float64(p.Cycles)/total),
				p.X86, p.UOps)
		}
		pt.Write(w)
	}
}

// WriteText renders each workload's comparison (diff.WriteReport) and
// the roll-up of loops compared and significant verdicts.
func (r *DiffReport) WriteText(w io.Writer) {
	for i := range r.Rows {
		row := &r.Rows[i]
		if i > 0 {
			fmt.Fprintln(w)
		}
		diff.WriteReport(w, row.Workload, row.Class, &row.Report)
	}
	fmt.Fprintf(w, "\n%d loops compared; %d significant regressions, %d significant improvements\n",
		r.LoopsCompared(), r.SignificantRegressions(), r.SignificantImprovements())
}
