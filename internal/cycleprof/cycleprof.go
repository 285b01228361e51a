// Package cycleprof is the guest-cycle profiler: it attributes every
// fetch-stage cycle the pipeline charges (the paper's Figure 7/8 bins)
// to the guest PC responsible, joins the per-PC table against the loop
// structure internal/reuse detects, and exports the result as tables,
// pprof protobuf, and flame-text.
//
// Attribution is conservation-exact by construction: the engine's only
// two cycle-charging paths (Engine.tick and Engine.stallUntil) invoke
// the probe, so the per-PC × per-bin sums equal Stats.Cycles and
// Stats.Bins exactly over the attached window — there is no separate
// bookkeeping that could drift. The conservation test in internal/sim
// pins this for every profile and optimizer subset.
//
// The responsible PC is the fetch-group leader: the instruction heading
// an ICache fetch group or a frame dispatch group owns the group's
// switch-turnaround, window-stall, miss, and fetch cycles, while
// mispredict-recovery and assert-recovery stalls are re-attributed to
// the branch (or aborting frame head) that caused them. That is the
// same "who do I blame" convention hardware cycle accounting uses, and
// it keeps the join against loop intervals meaningful.
package cycleprof

import (
	"sort"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/reuse"
)

// pcCell is the per-guest-PC accumulation cell.
type pcCell struct {
	bins    [pipeline.NumBins]uint64
	cycles  uint64
	x86     uint64 // retired x86 instructions at this PC
	uops    uint64 // decoded (baseline) micro-ops at this PC
	covered uint64 // baseline micro-ops retired through frames
}

func (c *pcCell) add(o *pcCell) {
	for i := range c.bins {
		c.bins[i] += o.bins[i]
	}
	c.cycles += o.cycles
	c.x86 += o.x86
	c.uops += o.uops
	c.covered += o.covered
}

// probe is the per-engine streaming profiler: per-PC cycle charges
// plus per-PC retired-work counts, so loop rollups can report IPC and
// frame coverage. Single-goroutine, like the engine that drives it.
type probe struct {
	pipeline.NopProbe
	pcs   map[uint32]*pcCell
	order []uint32 // insertion order, for deterministic folds
}

func (p *probe) cell(pc uint32) *pcCell {
	c := p.pcs[pc]
	if c == nil {
		c = &pcCell{}
		p.pcs[pc] = c
		p.order = append(p.order, pc)
	}
	return c
}

func (p *probe) CycleCharge(pc uint32, bin pipeline.Bin, n uint64) {
	c := p.cell(pc)
	c.bins[bin] += n
	c.cycles += n
}

func (p *probe) SlotRetired(s pipeline.Slot, fromFrame bool, uopsExecuted int) {
	c := p.cell(s.PC)
	c.x86++
	n := uint64(len(s.UOps))
	c.uops += n
	if fromFrame {
		c.covered += n
	}
}

// pcKey identifies a PC across traces (traces are independent address
// spaces, so the same PC in two traces is two different locations).
type pcKey struct {
	trace int
	pc    uint32
}

// Collector aggregates per-engine probes into one workload profile.
// The simulation attaches it to every engine after warmup; the fold
// runs under the collector's lock, so traces may run concurrently.
type Collector struct {
	mu    sync.Mutex
	pcs   map[pcKey]*pcCell
	order []pcKey
	loops []reuse.Loop
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{pcs: make(map[pcKey]*pcCell)} }

// Attach returns a fresh probe for one engine run over the given trace
// index, and the func that folds the probe's table and the engine's
// detected loops into the collector once the engine's last run ends.
// Calling the fold func again is a no-op.
func (c *Collector) Attach(trace int, loops *reuse.LoopStack) (pipeline.Probe, func()) {
	p := &probe{pcs: make(map[uint32]*pcCell)}
	return p, sync.OnceFunc(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, pc := range p.order {
			k := pcKey{trace: trace, pc: pc}
			cell := c.pcs[k]
			if cell == nil {
				cell = &pcCell{}
				c.pcs[k] = cell
				c.order = append(c.order, k)
			}
			cell.add(p.pcs[pc])
		}
		for _, l := range loops.Loops() {
			l.Trace = trace
			c.loops = append(c.loops, l)
		}
	})
}

// PCStat is one guest PC's share of the measured window.
type PCStat struct {
	Trace  int    `json:"trace"`
	PC     uint32 `json:"pc"`
	Cycles uint64 `json:"cycles"`
	// Bins splits Cycles by fetch bin, indexed by pipeline.Bin.
	Bins [pipeline.NumBins]uint64 `json:"bins"`
	// X86/UOps/Covered are the retired work observed at this PC (zero
	// for PCs that only absorbed charge, e.g. a frame head blamed for a
	// recovery stall after divergence).
	X86     uint64 `json:"x86,omitempty"`
	UOps    uint64 `json:"uops,omitempty"`
	Covered uint64 `json:"covered,omitempty"`
}

// LoopCycles is a detected loop joined with the cycle table: every
// per-PC cell whose PC falls inside the loop's body interval
// [Header, Tail] in the same trace rolls up here. Nested loops overlap
// by design — an outer loop's rollup includes its inner loops, the same
// inclusive semantics a pprof call tree gives a non-leaf frame.
type LoopCycles struct {
	Trace  int     `json:"trace"`
	Header uint32  `json:"header"`
	Tail   uint32  `json:"tail"`
	Nest   int     `json:"nest"`
	Trips  float64 `json:"trips"`
	Cycles uint64  `json:"cycles"`
	// Bins splits Cycles by fetch bin, indexed by pipeline.Bin.
	Bins    [pipeline.NumBins]uint64 `json:"bins"`
	X86     uint64                   `json:"x86"`
	UOps    uint64                   `json:"uops"`
	Covered uint64                   `json:"covered"`
}

// IPC is the loop's retired x86 instructions per attributed cycle.
func (l *LoopCycles) IPC() float64 {
	if l.Cycles == 0 {
		return 0
	}
	return float64(l.X86) / float64(l.Cycles)
}

// BinFrac is the fraction of the loop's cycles charged to bin b.
func (l *LoopCycles) BinFrac(b pipeline.Bin) float64 {
	if l.Cycles == 0 {
		return 0
	}
	return float64(l.Bins[b]) / float64(l.Cycles)
}

// CoverFrac is the fraction of the loop's baseline micro-ops retired
// through frames (frame coverage of the loop body).
func (l *LoopCycles) CoverFrac() float64 {
	if l.UOps == 0 {
		return 0
	}
	return float64(l.Covered) / float64(l.UOps)
}

// Report is one workload's guest-cycle profile: totals, the full per-PC
// table, and the loop-joined rollups.
type Report struct {
	// Cycles and Bins are the attributed totals; the conservation
	// invariant makes them equal the measured window's Stats.Cycles and
	// Stats.Bins exactly.
	Cycles uint64                   `json:"cycles"`
	Bins   [pipeline.NumBins]uint64 `json:"bins"`
	X86    uint64                   `json:"x86"`
	UOps   uint64                   `json:"uops"`
	// PCs is the full attribution table, sorted by (trace, pc) for
	// deterministic output.
	PCs []PCStat `json:"pcs"`
	// Loops is sorted by cycles descending (heaviest hotspot first).
	Loops []LoopCycles `json:"loops,omitempty"`
}

// BinFrac is the fraction of all cycles charged to bin b.
func (r *Report) BinFrac(b pipeline.Bin) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Bins[b]) / float64(r.Cycles)
}

// TopPCs returns the n heaviest PCs by cycles (ties broken by trace
// then PC, so the order is deterministic).
func (r *Report) TopPCs(n int) []PCStat {
	top := make([]PCStat, len(r.PCs))
	copy(top, r.PCs)
	sort.SliceStable(top, func(i, j int) bool { return top[i].Cycles > top[j].Cycles })
	if len(top) > n {
		top = top[:n]
	}
	return top
}

// Snapshot assembles the report accumulated so far: the per-PC table in
// (trace, pc) order and the loop join.
func (c *Collector) Snapshot() Report {
	c.mu.Lock()
	defer c.mu.Unlock()

	keys := make([]pcKey, len(c.order))
	copy(keys, c.order)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].trace != keys[j].trace {
			return keys[i].trace < keys[j].trace
		}
		return keys[i].pc < keys[j].pc
	})

	r := Report{PCs: make([]PCStat, 0, len(keys))}
	for _, k := range keys {
		cell := c.pcs[k]
		r.PCs = append(r.PCs, PCStat{
			Trace: k.trace, PC: k.pc,
			Cycles: cell.cycles, Bins: cell.bins,
			X86: cell.x86, UOps: cell.uops, Covered: cell.covered,
		})
		r.Cycles += cell.cycles
		r.X86 += cell.x86
		r.UOps += cell.uops
		for i := range cell.bins {
			r.Bins[i] += cell.bins[i]
		}
	}

	// Loop join: PCs are sorted per trace, so each loop's body interval
	// is a contiguous slice found by binary search.
	r.Loops = make([]LoopCycles, 0, len(c.loops))
	for _, l := range c.loops {
		lc := LoopCycles{
			Trace: l.Trace, Header: l.Header, Tail: l.Tail,
			Nest: l.Nest, Trips: l.TripCount(),
		}
		lo := sort.Search(len(r.PCs), func(i int) bool {
			p := &r.PCs[i]
			return p.Trace > l.Trace || (p.Trace == l.Trace && p.PC >= l.Header)
		})
		for i := lo; i < len(r.PCs) && r.PCs[i].Trace == l.Trace && r.PCs[i].PC <= l.Tail; i++ {
			p := &r.PCs[i]
			lc.Cycles += p.Cycles
			for b := range p.Bins {
				lc.Bins[b] += p.Bins[b]
			}
			lc.X86 += p.X86
			lc.UOps += p.UOps
			lc.Covered += p.Covered
		}
		r.Loops = append(r.Loops, lc)
	}
	sort.SliceStable(r.Loops, func(i, j int) bool {
		if r.Loops[i].Cycles != r.Loops[j].Cycles {
			return r.Loops[i].Cycles > r.Loops[j].Cycles
		}
		if r.Loops[i].Trace != r.Loops[j].Trace {
			return r.Loops[i].Trace < r.Loops[j].Trace
		}
		return r.Loops[i].Header < r.Loops[j].Header
	})
	return r
}
