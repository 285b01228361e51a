package server

import (
	"sync"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
)

// cycleMetrics accumulates cycles-experiment results across finished
// jobs for the /metrics exposition: attributed fetch cycles per bin
// plus loop-join volume. Profiling forces execution — memoization never
// skips a cycles run — so every cycles job contributes samples.
type cycleMetrics struct {
	mu         sync.Mutex
	jobs       uint64
	bins       [pipeline.NumBins]uint64
	loops      uint64
	loopCycles uint64
}

func newCycleMetrics() *cycleMetrics { return &cycleMetrics{} }

// fold merges one finished cycles job's report into the aggregates.
func (m *cycleMetrics) fold(rep *sim.CycleReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs++
	for i := range rep.Rows {
		r := &rep.Rows[i].Report
		for b := range r.Bins {
			m.bins[b] += r.Bins[b]
		}
		m.loops += uint64(len(r.Loops))
		for j := range r.Loops {
			m.loopCycles += r.Loops[j].Cycles
		}
	}
}

// render writes the replayd_fetch_cycles_* and replayd_cycleprof_*
// families.
func (m *cycleMetrics) render(p *stats.Prom) {
	m.mu.Lock()
	jobs, bins, loops, loopCycles := m.jobs, m.bins, m.loops, m.loopCycles
	m.mu.Unlock()

	p.Counter("replayd_cycleprof_jobs_total", "Cycles-experiment jobs whose profiles were folded into these aggregates.", float64(jobs))
	samples := make([]stats.LabeledSample, pipeline.NumBins)
	for i := range bins {
		samples[i] = stats.LabeledSample{Label: pipeline.Bin(i).String(), Value: float64(bins[i])}
	}
	p.LabeledCounter("replayd_fetch_cycles_total",
		"Fetch cycles attributed by the guest-cycle profiler to each fetch bin across cycles-experiment runs; summed over bins this equals the measured cycle total of those runs (the conservation invariant).",
		"bin", samples)
	p.Counter("replayd_cycleprof_loops_total", "Loop-joined hotspots across cycles-experiment runs.", float64(loops))
	p.Counter("replayd_cycleprof_loop_cycles_total", "Fetch cycles attributed inside detected loop bodies across cycles-experiment runs (inclusive rollups; nested loops overlap).", float64(loopCycles))
}
