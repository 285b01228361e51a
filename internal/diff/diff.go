// Package diff is the ablation diff engine: it observes two runs of
// the simulator — baseline and variant — with a probe that partitions
// every observable the other probes report (retired work, per-pass
// optimizer removals, charged fetch cycles) over the loops the engine's
// shared internal/reuse loop stack detects, then joins the two
// partitions into a conservation-exact delta report: for each loop,
// which pass removed how many micro-ops and how many fetch cycles that
// bought.
//
// Unlike internal/cycleprof's loop join — an inclusive interval rollup
// where an outer loop's row contains its inner loops — the diff
// probe attributes each event to the innermost active loop at event
// time, so the rows form an exact partition: every retired micro-op,
// every pass kill, and every charged cycle lands in exactly one row
// (straight-line code gets a pseudo-row per trace). Per side, the row
// sums therefore equal the measured window's Stats counters, and per
// comparison the per-row deltas sum exactly to the difference of the
// two runs' counters — the residual ("unattributed delta") is zero by
// construction, and the report computes it honestly so tests can pin
// it.
package diff

import (
	"maps"
	"sort"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/reuse"
)

// PassCount is what one optimizer pass did inside one loop row.
type PassCount struct {
	Calls     uint64 `json:"calls"`
	Killed    uint64 `json:"killed"`
	Rewritten uint64 `json:"rewritten"`
}

func (p *PassCount) add(o PassCount) {
	p.Calls += o.Calls
	p.Killed += o.Killed
	p.Rewritten += o.Rewritten
}

// Row is one side's accumulation cell for a single loop (or the
// straight-line pseudo-row of one trace): the retired work, the
// optimizer activity, and the fetch cycles observed while that loop
// was the innermost active one.
type Row struct {
	Trace  int    `json:"trace"`
	Header uint32 `json:"header"`
	Tail   uint32 `json:"tail"`
	// Straight marks the pseudo-row collecting everything observed
	// outside any detected loop.
	Straight bool `json:"straight,omitempty"`
	Nest     int  `json:"nest,omitempty"`

	X86         uint64 `json:"x86"`
	UOps        uint64 `json:"uops"` // decoded (baseline) micro-ops
	UOpsRetired uint64 `json:"uops_retired"`
	Covered     uint64 `json:"covered"`
	FrameHits   uint64 `json:"frame_hits"`
	// OptRemoved is the net micro-op removal of optimizer runs that
	// fired in this row's context; by the opt invariant it equals the
	// summed Killed of the row's Passes.
	OptRemoved uint64                   `json:"opt_removed"`
	Cycles     uint64                   `json:"cycles"`
	Bins       [pipeline.NumBins]uint64 `json:"bins"`
	Passes     map[string]PassCount     `json:"passes,omitempty"`
}

func (r *Row) addPass(pass string, killed, rewritten int) {
	if r.Passes == nil {
		r.Passes = make(map[string]PassCount)
	}
	pc := r.Passes[pass]
	pc.Calls++
	pc.Killed += uint64(killed)
	pc.Rewritten += uint64(rewritten)
	r.Passes[pass] = pc
}

func (r *Row) add(o *Row) {
	r.X86 += o.X86
	r.UOps += o.UOps
	r.UOpsRetired += o.UOpsRetired
	r.Covered += o.Covered
	r.FrameHits += o.FrameHits
	r.OptRemoved += o.OptRemoved
	r.Cycles += o.Cycles
	for i := range r.Bins {
		r.Bins[i] += o.Bins[i]
	}
	if o.Tail > r.Tail {
		r.Tail = o.Tail
	}
	if o.Nest > r.Nest {
		r.Nest = o.Nest
	}
	for name, pc := range o.Passes {
		if r.Passes == nil {
			r.Passes = make(map[string]PassCount)
		}
		cur := r.Passes[name]
		cur.add(pc)
		r.Passes[name] = cur
	}
}

// probe is the per-engine diff probe: it bins every event into the row
// of the loop the engine's shared loop stack reports innermost active.
// Single-goroutine, like the engine that drives it.
type probe struct {
	pipeline.NopProbe
	loops    *reuse.LoopStack
	rows     map[uint32]*Row // keyed by loop header PC
	order    []uint32        // header insertion order, for deterministic folds
	straight Row
}

// row returns the accumulation cell for the current innermost active
// loop (the straight-line pseudo-row outside any loop).
func (p *probe) row() *Row {
	h, ok := p.loops.Active()
	if !ok {
		return &p.straight
	}
	r := p.rows[h]
	if r == nil {
		r = &Row{Header: h}
		p.rows[h] = r
		p.order = append(p.order, h)
	}
	return r
}

// SlotRetired attributes the slot to the loop active after its own
// back edge: a closing branch counts toward the loop it closes.
func (p *probe) SlotRetired(s *pipeline.Rec, fromFrame bool, uopsExecuted int) {
	r := p.row()
	r.X86++
	n := uint64(len(s.UOps))
	r.UOps += n
	r.UOpsRetired += uint64(uopsExecuted)
	if fromFrame {
		r.Covered += n
	}
}

func (p *probe) FrameHit(uint64, uint64, uint32) { p.row().FrameHits++ }

func (p *probe) FrameRetired(_ uint64, uops int, committed bool) {
	if committed {
		p.row().UOpsRetired += uint64(uops)
	}
}

// OptRemoved fires in the same optimizer run as that run's Pass calls,
// so per row the two agree: OptRemoved equals the summed Killed.
func (p *probe) OptRemoved(_, _ uint64, _ uint32, uopsIn, uopsOut int, _ uint64) {
	p.row().OptRemoved += uint64(uopsIn - uopsOut)
}

func (p *probe) Pass(pass string, killed, rewritten int) { p.row().addPass(pass, killed, rewritten) }

func (p *probe) CycleCharge(pc uint32, bin pipeline.Bin, n uint64) {
	r := p.row()
	r.Cycles += n
	r.Bins[bin] += n
}

// rowKey identifies a row across traces.
type rowKey struct {
	trace    int
	header   uint32
	straight bool
}

// Collector aggregates per-engine probes into one run profile. The
// simulation attaches it to every engine after warmup; the fold runs
// under the collector's lock, so traces may run concurrently.
type Collector struct {
	mu    sync.Mutex
	rows  map[rowKey]*Row
	order []rowKey
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{rows: make(map[rowKey]*Row)} }

// Attach returns a fresh probe for one engine run over the given trace
// index, reading that engine's loop stack, and the func that folds the
// probe's rows into the collector once the engine's last run ends.
// Calling the fold func again is a no-op.
func (c *Collector) Attach(_ string, trace int, loops *reuse.LoopStack) (pipeline.Probe, func()) {
	p := &probe{loops: loops, rows: make(map[uint32]*Row), straight: Row{Straight: true}}
	return p, sync.OnceFunc(func() { c.fold(trace, p) })
}

// fold stamps loop geometry (tail, nesting) from the loop stack onto
// the probe's rows and folds them in.
func (c *Collector) fold(trace int, p *probe) {
	for _, l := range p.loops.Loops() {
		if r := p.rows[l.Header]; r != nil {
			r.Tail = l.Tail
			r.Nest = l.Nest
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	add := func(k rowKey, src *Row) {
		dst := c.rows[k]
		if dst == nil {
			dst = &Row{Trace: k.trace, Header: k.header, Straight: k.straight}
			c.rows[k] = dst
			c.order = append(c.order, k)
		}
		dst.add(src)
	}
	if s := &p.straight; s.X86 > 0 || s.Cycles > 0 || s.UOps > 0 || s.OptRemoved > 0 ||
		s.FrameHits > 0 || s.UOpsRetired > 0 || len(s.Passes) > 0 {
		add(rowKey{trace: trace, straight: true}, s)
	}
	for _, h := range p.order {
		add(rowKey{trace: trace, header: h}, p.rows[h])
	}
}

// Profile is one side's complete partition: the per-loop rows plus
// their re-summed totals. The conservation invariant makes the totals
// equal the measured window's Stats counters exactly.
type Profile struct {
	Rows []Row `json:"rows"`

	X86         uint64                   `json:"x86"`
	UOps        uint64                   `json:"uops"`
	UOpsRetired uint64                   `json:"uops_retired"`
	Covered     uint64                   `json:"covered"`
	FrameHits   uint64                   `json:"frame_hits"`
	OptRemoved  uint64                   `json:"opt_removed"`
	Cycles      uint64                   `json:"cycles"`
	Bins        [pipeline.NumBins]uint64 `json:"bins"`
	// Passes is the per-pass total across all rows.
	Passes map[string]PassCount `json:"passes,omitempty"`
}

// Snapshot assembles the profile accumulated so far: rows sorted by
// (trace, straight-first, header) and totals re-summed from them.
func (c *Collector) Snapshot() Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]rowKey, len(c.order))
	copy(keys, c.order)
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		if a.straight != b.straight {
			return a.straight
		}
		return a.header < b.header
	})
	p := Profile{Rows: make([]Row, 0, len(keys))}
	var tot Row
	for _, k := range keys {
		r := *c.rows[k]
		r.Passes = maps.Clone(r.Passes)
		p.Rows = append(p.Rows, r)
		tot.add(&r)
	}
	p.X86, p.UOps, p.UOpsRetired, p.Covered = tot.X86, tot.UOps, tot.UOpsRetired, tot.Covered
	p.FrameHits, p.OptRemoved, p.Cycles, p.Bins = tot.FrameHits, tot.OptRemoved, tot.Cycles, tot.Bins
	p.Passes = tot.Passes
	return p
}
