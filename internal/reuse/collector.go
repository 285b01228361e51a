package reuse

import (
	"sort"
	"sync"

	"repro/internal/pipeline"
)

// TopLoopCap bounds the per-report loop list: the heaviest loops by
// retired micro-op mass, which is what the subset selector and the
// report renderers care about.
const TopLoopCap = 12

// BucketReport is one depth bucket with its display label.
type BucketReport struct {
	Label string `json:"label"`
	BucketStat
}

// Report is the aggregated reuse decomposition of one workload: the
// per-depth attribution cells plus the heaviest detected loops.
type Report struct {
	Buckets []BucketReport `json:"buckets"`
	// Loops is the number of distinct loops detected across traces.
	Loops int `json:"loops"`
	// LoopEntries and BackEdges total activations and closed iterations.
	LoopEntries uint64 `json:"loop_entries"`
	BackEdges   uint64 `json:"back_edges"`
	// TotalX86/TotalUOps are the bucket sums (== the pipeline's retired
	// totals for the measured window — the conservation invariant).
	TotalX86  uint64 `json:"total_x86"`
	TotalUOps uint64 `json:"total_uops"`
	// LoopUOps is the baseline micro-op mass retired inside loops
	// (buckets 1+); LoopUOps/TotalUOps is the reuse-mass fraction.
	LoopUOps uint64 `json:"loop_uops"`
	// TopLoops lists the heaviest loops by micro-op mass (capped at
	// TopLoopCap), tagged with their trace index.
	TopLoops []Loop `json:"top_loops,omitempty"`
}

// LoopFrac is the fraction of baseline micro-ops retired inside loops.
func (r *Report) LoopFrac() float64 {
	if r.TotalUOps == 0 {
		return 0
	}
	return float64(r.LoopUOps) / float64(r.TotalUOps)
}

// Bucket returns the stats for a depth bucket (zero value out of range).
func (r *Report) Bucket(i int) BucketStat {
	if i >= 0 && i < len(r.Buckets) {
		return r.Buckets[i].BucketStat
	}
	return BucketStat{}
}

// Collector aggregates per-engine detectors into one workload report.
// The simulation attaches it to every engine after warmup; the fold
// runs under the collector's lock, so traces may run concurrently.
type Collector struct {
	mu        sync.Mutex
	buckets   [NumBuckets]BucketStat
	loops     []Loop
	entries   uint64
	backEdges uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach returns a fresh detector for one engine run over the given
// trace index, reading that engine's loop stack, and the func that
// folds the detector's totals into the collector once the engine's
// last run ends. Calling the fold func again is a no-op.
func (c *Collector) Attach(_ string, trace int, loops *LoopStack) (pipeline.Probe, func()) {
	d := NewDetector(loops)
	return d, sync.OnceFunc(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := range c.buckets {
			c.buckets[i].Add(&d.buckets[i])
		}
		for _, l := range d.Loops() {
			l.Trace = trace
			c.loops = append(c.loops, l)
			c.entries += l.Entries
			c.backEdges += l.BackEdges
		}
	})
}

// Snapshot assembles the report accumulated so far.
func (c *Collector) Snapshot() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Buckets:     make([]BucketReport, NumBuckets),
		Loops:       len(c.loops),
		LoopEntries: c.entries,
		BackEdges:   c.backEdges,
	}
	for i := range c.buckets {
		r.Buckets[i] = BucketReport{Label: BucketLabel(i), BucketStat: c.buckets[i]}
		r.TotalX86 += c.buckets[i].X86
		r.TotalUOps += c.buckets[i].UOps
		if i > 0 {
			r.LoopUOps += c.buckets[i].UOps
		}
	}
	top := make([]Loop, len(c.loops))
	copy(top, c.loops)
	sort.SliceStable(top, func(i, j int) bool { return top[i].UOps > top[j].UOps })
	if len(top) > TopLoopCap {
		top = top[:TopLoopCap]
	}
	r.TopLoops = top
	return r
}

// Signature flattens a report into the reuse-mass vector Select
// consumes: baseline micro-ops per {depth bucket × class} cell, plus
// the per-bucket frame-hit and optimizer-removal masses. Dimensions are
// positional, so signatures from different workloads align.
func Signature(r *Report) []float64 {
	sig := make([]float64, 0, NumBuckets*(NumClasses+2))
	for i := 0; i < NumBuckets; i++ {
		b := r.Bucket(i)
		for _, c := range b.Classes {
			sig = append(sig, float64(c))
		}
		sig = append(sig, float64(b.FrameHits), float64(b.OptRemoved))
	}
	return sig
}
