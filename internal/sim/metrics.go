package sim

import (
	"sync"
	"sync/atomic"

	"repro/internal/pipeline"
)

// Service-level observability for long-lived hosts: monotonic counters
// over the caching layers plus an aggregate of every executed run's
// pipeline statistics. replayd's /metrics endpoint snapshots these; the
// CLI can print them after a sweep. Counters never reset (Prometheus
// convention); occupancy gauges live in MemoOccupancy and
// CaptureOccupancy.

var metrics struct {
	runsExecuted  atomic.Uint64 // simulations actually executed (memo misses)
	memoHits      atomic.Uint64 // runs served from the memo
	captureBuilds atomic.Uint64 // slot streams interpreted or uploads adapted into captures
	captureHits   atomic.Uint64 // capture lookups served without interpreting or adapting

	mu        sync.Mutex
	aggregate pipeline.Stats // sum over executed runs
}

// recordRun accounts one executed (non-memoized) simulation.
func recordRun(s *pipeline.Stats) {
	metrics.runsExecuted.Add(1)
	metrics.mu.Lock()
	metrics.aggregate.Add(s)
	metrics.mu.Unlock()
}

// Metrics is a point-in-time snapshot of the driver's service counters.
type Metrics struct {
	RunsExecuted  uint64 // simulations executed to completion
	MemoHits      uint64 // runs served from the run memo
	CaptureBuilds uint64 // slot streams interpreted and uploads adapted
	CaptureHits   uint64 // capture lookups served from a live recording

	MemoEntries       int // current run-memo occupancy
	MemoLimit         int
	CaptureEntries    int
	CaptureBytes      int64
	CaptureEntryLimit int
	CaptureByteLimit  int64

	// Aggregate sums the pipeline statistics of every executed run since
	// process start (memo hits excluded — they re-serve already-counted
	// work).
	Aggregate pipeline.Stats
}

// SnapshotMetrics returns the current service counters and occupancy.
func SnapshotMetrics() Metrics {
	m := Metrics{
		RunsExecuted:  metrics.runsExecuted.Load(),
		MemoHits:      metrics.memoHits.Load(),
		CaptureBuilds: metrics.captureBuilds.Load(),
		CaptureHits:   metrics.captureHits.Load(),
	}
	m.MemoEntries, m.MemoLimit = MemoOccupancy()
	m.CaptureEntries, m.CaptureBytes, m.CaptureEntryLimit, m.CaptureByteLimit = CaptureOccupancy()
	metrics.mu.Lock()
	m.Aggregate = metrics.aggregate
	metrics.mu.Unlock()
	return m
}
