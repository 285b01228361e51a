package opt

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/uop"
	"repro/internal/x86"
)

// Options selects which optimizations run (the Figure 10 ablation
// switches). Dead-code elimination is always enabled, as in the paper —
// every other optimization relies on it.
type Options struct {
	NOP    bool // NOP and internal unconditional-jump removal
	CP     bool // constant and copy propagation
	RA     bool // reassociation
	CSE    bool // common subexpression elimination (incl. redundant loads)
	SF     bool // store forwarding
	Assert bool // value assertion fusion (compare + assert -> CASSERT)

	// Speculative enables memory optimization past may-alias stores that
	// did not alias in the construction profile, marking them unsafe.
	Speculative bool
}

// AllOptions enables every optimization including speculation (the RPO
// configuration).
func AllOptions() Options {
	return Options{NOP: true, CP: true, RA: true, CSE: true, SF: true, Assert: true, Speculative: true}
}

// Stats reports what one optimization run did.
type Stats struct {
	UOpsIn, UOpsOut   int
	LoadsIn, LoadsOut int

	RemovedNOP   int // NOPs and internal jumps removed
	FoldedCP     int // ops folded to constants / asserts discharged
	Reassoc      int // reassociation rewrites
	CSEVals      int // ALU values commoned
	CSELoads     int // redundant loads eliminated
	SFLoads      int // loads forwarded from stores
	FusedAsserts int // compare+assert fusions
	RemovedDCE   int // dead ops removed
	UnsafeStores int // stores marked unsafe by speculation
}

// Removed returns the net micro-op reduction.
func (s Stats) Removed() int { return s.UOpsIn - s.UOpsOut }

// PassRecorder observes individual optimizer pass invocations for
// attribution. Implementations receive the frame id, the pass name
// (see PassNames), uops the pass invalidated, and uops it rewrote in
// place. Only invocations that changed something are reported. The
// pipeline engine's recorder forwards each call to its probes' Pass
// hook; opt declares its own interface to stay a leaf package.
type PassRecorder interface {
	RecordPass(frameID uint64, pass string, killed, rewritten int)
}

// TimedPassRecorder observes wall-clock pass timing. When the recorder
// passed to OptimizeTraced also implements it, RecordPassTimed is called
// for EVERY pass invocation (changed or not — time is spent either
// way) in addition to the changed-only RecordPass calls; the combined
// memory pass reports its timing under the name "mem" since its
// cse-load/sf split is visible only in the rewrite counters. Span
// tracing aggregates these into per-pass child spans of the run.
type TimedPassRecorder interface {
	RecordPassTimed(frameID uint64, pass string, killed, rewritten int, d time.Duration)
}

// passOrder is the sequence Optimize first runs the passes in, under
// the names it reports them by.
var passOrder = []string{"nop", "cp", "ra", "cse", "cse-load", "sf", "assert", "dce"}

// PassNames returns the pass names keyed in ms, each once, in the order
// Optimize runs the passes; names it does not know follow
// alphabetically. Per-pass tables list their rows in this order.
func PassNames[V any](ms ...map[string]V) []string {
	var names []string
	for _, m := range ms {
		for n := range m {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	}
	rank := func(n string) int {
		if i := slices.Index(passOrder, n); i >= 0 {
			return i
		}
		return len(passOrder)
	}
	slices.SortFunc(names, func(a, b string) int {
		return cmp.Or(cmp.Compare(rank(a), rank(b)), strings.Compare(a, b))
	})
	return names
}

// Optimize runs the configured passes over the frame in place and
// returns the run's statistics. Pass order follows the paper's gateway
// structure: NOP removal first, then a propagate/reassociate/common/
// forward fixpoint, assertion fusion, a final constant pass to discharge
// asserted constants, and dead-code elimination.
func Optimize(of *OptFrame, opts Options) Stats {
	return optimize(of, opts, nil)
}

// OptimizeTraced is Optimize with per-pass attribution: every pass
// invocation that kills or rewrites uops is reported to rec. The
// invariant the attribution conservation test pins down: summed killed
// across all reported passes equals Stats.Removed(), because a uop only
// leaves the frame by a pass flipping Valid inside a traced call.
func OptimizeTraced(of *OptFrame, opts Options, rec PassRecorder) Stats {
	return optimize(of, opts, rec)
}

// scratch is the per-call working memory of the passes: the CSE value-
// numbering table, cpPass's constant state, dcePass's use counts and
// memPass's unsafe-candidate list. optimize takes one from scratchPool
// for the length of the call and returns it at exit; no frame keeps it.
type scratch struct {
	cse            cseTable
	cs             constState
	valUse, flgUse []int32
	unsafe         []int32
}

var scratchPool = sync.Pool{
	New: func() any { return new(scratch) },
}

func optimize(of *OptFrame, opts Options, rec PassRecorder) Stats {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	var s Stats
	s.UOpsIn = of.NumValid()
	s.LoadsIn = of.NumValidLoads()

	var frameID uint64
	if rec != nil && of.Source != nil {
		frameID = of.Source.ID
	}
	// timed is resolved once: the two time.Now calls per pass are paid
	// only when someone consumes wall-clock timing.
	timed, _ := rec.(TimedPassRecorder)
	// traced measures what one pass invocation did: killed is the drop
	// in valid uops (exact — passes only ever invalidate), rewritten the
	// delta of the pass's own rewrite counter.
	traced := func(pass string, rewrites *int, fn func()) {
		if rec == nil {
			fn()
			return
		}
		v0 := of.NumValid()
		r0 := 0
		if rewrites != nil {
			r0 = *rewrites
		}
		var t0 time.Time
		if timed != nil {
			t0 = time.Now()
		}
		fn()
		killed := v0 - of.NumValid()
		rew := 0
		if rewrites != nil {
			rew = *rewrites - r0
		}
		if timed != nil {
			timed.RecordPassTimed(frameID, pass, killed, rew, time.Since(t0))
		}
		if killed != 0 || rew != 0 {
			rec.RecordPass(frameID, pass, killed, rew)
		}
	}

	if opts.NOP {
		traced("nop", nil, func() { of.nopPass(&s) })
	}
	for iter := 0; iter < 4; iter++ {
		changed := false
		if opts.CP {
			traced("cp", &s.FoldedCP, func() { changed = of.cpPass(&s, sc) || changed })
		}
		if opts.RA {
			traced("ra", &s.Reassoc, func() { changed = of.raPass(&s) || changed })
		}
		if opts.CSE {
			traced("cse", &s.CSEVals, func() { changed = of.csePass(&s, sc) || changed })
		}
		if opts.CSE || opts.SF {
			// memPass only rewrites (loads become MOVs; DCE reaps them
			// later), but it moves two counters, one per technique.
			if rec == nil {
				changed = of.memPass(&s, opts, sc) || changed
			} else {
				c0, f0 := s.CSELoads, s.SFLoads
				var t0 time.Time
				if timed != nil {
					t0 = time.Now()
				}
				changed = of.memPass(&s, opts, sc) || changed
				dcse, dsf := s.CSELoads-c0, s.SFLoads-f0
				if timed != nil {
					timed.RecordPassTimed(frameID, "mem", 0, dcse+dsf, time.Since(t0))
				}
				if dcse > 0 {
					rec.RecordPass(frameID, "cse-load", 0, dcse)
				}
				if dsf > 0 {
					rec.RecordPass(frameID, "sf", 0, dsf)
				}
			}
		}
		if !changed {
			break
		}
	}
	if opts.Assert {
		traced("assert", &s.FusedAsserts, func() { of.assertPass(&s) })
	}
	if opts.CP {
		traced("cp", &s.FoldedCP, func() { of.cpPass(&s, sc) })
	}
	traced("dce", nil, func() { of.dcePass(&s, sc) })

	s.UOpsOut = of.NumValid()
	s.LoadsOut = of.NumValidLoads()
	return s
}

// References always point backward: Remap names an earlier producer for
// every source, and every pass substitutes a ref that is earlier still
// (TestRefsPointBackward). The scans for consumers of op i therefore
// start at i+1.

// flagsConsumed reports whether any valid op reads op i's flags, or the
// flags are live-out.
func (of *OptFrame) flagsConsumed(i int32) bool {
	if of.Ops[i].FlagsLiveOut {
		return true
	}
	for j := i + 1; j < int32(len(of.Ops)); j++ {
		o := &of.Ops[j]
		if o.Valid && o.SrcF.Kind == RefOp && o.SrcF.Idx == i {
			return true
		}
	}
	return false
}

// replaceValueRefs re-points all value references (SrcA/SrcB) from op i to
// ref r.
func (of *OptFrame) replaceValueRefs(i int32, r Ref) {
	for j := i + 1; j < int32(len(of.Ops)); j++ {
		o := &of.Ops[j]
		if !o.Valid {
			continue
		}
		if o.SrcA.Kind == RefOp && o.SrcA.Idx == i {
			o.SrcA = r
		}
		if o.SrcB.Kind == RefOp && o.SrcB.Idx == i {
			o.SrcB = r
		}
	}
}

// replaceFlagRefs re-points all flag references from op i to ref r.
func (of *OptFrame) replaceFlagRefs(i int32, r Ref) {
	for j := i + 1; j < int32(len(of.Ops)); j++ {
		o := &of.Ops[j]
		if o.Valid && o.SrcF.Kind == RefOp && o.SrcF.Idx == i {
			o.SrcF = r
		}
	}
}

// nopPass removes NOPs and internal unconditional jumps.
func (of *OptFrame) nopPass(s *Stats) {
	for i := range of.Ops {
		o := &of.Ops[i]
		if o.Valid && (o.Op == uop.NOP || o.Op == uop.JMP) {
			o.Valid = false
			s.RemovedNOP++
		}
	}
}

// constState tracks statically known values and flags per op index.
type constState struct {
	val      []uint32
	valKnown []bool
	flg      []x86.Flags
	flgKnown []bool
}

// reset sizes the state for n ops with nothing known. val and flg are
// read only where their known bit is set, so only the bits are cleared.
func (cs *constState) reset(n int) {
	if cap(cs.valKnown) < n {
		cs.val, cs.valKnown = make([]uint32, n), make([]bool, n)
		cs.flg, cs.flgKnown = make([]x86.Flags, n), make([]bool, n)
		return
	}
	cs.val, cs.valKnown = cs.val[:n], cs.valKnown[:n]
	cs.flg, cs.flgKnown = cs.flg[:n], cs.flgKnown[:n]
	clear(cs.valKnown)
	clear(cs.flgKnown)
}

func (of *OptFrame) refConst(r Ref, cs *constState) (uint32, bool) {
	if r.Kind == RefOp && cs.valKnown[r.Idx] {
		return cs.val[r.Idx], true
	}
	return 0, false
}

// evalConst evaluates op i's value (and flags if clean) given constant
// inputs, via the shared micro-op evaluator.
func (of *OptFrame) evalConst(i int32, a, b uint32, cs *constState) (uint32, x86.Flags, bool) {
	o := &of.Ops[i]
	var regs uop.Regs
	regs.Set(uop.Reg(0), a)
	u := uop.UOp{
		Op: o.Op, Cond: o.Cond, Dest: uop.Reg(2),
		SrcA: uop.Reg(0), SrcB: uop.RegNone, Imm: o.Imm, Scale: o.Scale,
		WritesFlags: o.WritesFlags, KeepCF: false,
	}
	if !o.HasImmB() {
		u.SrcB = uop.Reg(1)
		regs.Set(uop.Reg(1), b)
	}
	if _, err := uop.Eval(u, &regs, nil); err != nil {
		return 0, 0, false
	}
	return regs.Get(uop.Reg(2)), regs.Flags(), true
}

// foldable ops for constant propagation.
func cpFoldable(op uop.Op) bool {
	switch op {
	case uop.ADD, uop.SUB, uop.AND, uop.OR, uop.XOR,
		uop.SHL, uop.SHR, uop.SAR, uop.MULLO, uop.MULHIU, uop.MULHIS,
		uop.LEA, uop.MOV:
		return true
	}
	return false
}

// cpPass performs copy propagation, constant folding, memory address
// absolutization, and constant-assert discharge. Returns whether anything
// changed.
func (of *OptFrame) cpPass(s *Stats, sc *scratch) bool {
	n := len(of.Ops)
	cs := &sc.cs
	cs.reset(n)
	changed := false

	for i := int32(0); i < int32(n); i++ {
		o := &of.Ops[i]
		if !o.Valid {
			continue
		}
		// Copy propagation: re-point sources through MOV ops.
		for _, src := range []*Ref{&o.SrcA, &o.SrcB} {
			for src.Kind == RefOp {
				p := &of.Ops[src.Idx]
				if p.Valid && p.Op == uop.MOV && p.SrcA.Kind != RefNone && of.sameRegion(i, src.Idx) {
					*src = p.SrcA
					changed = true
					continue
				}
				break
			}
		}

		switch o.Op {
		case uop.LIMM:
			cs.val[i], cs.valKnown[i] = uint32(o.Imm), true
			continue
		case uop.ASSERT:
			if o.SrcF.Kind == RefOp && cs.flgKnown[o.SrcF.Idx] {
				if o.Cond.Eval(cs.flg[o.SrcF.Idx]) {
					o.Valid = false
					s.FoldedCP++
					changed = true
				}
			}
			continue
		case uop.CASSERT:
			a, aok := of.refConst(o.SrcA, cs)
			b, bok := uint32(o.Imm), true
			if !o.HasImmB() {
				b, bok = of.refConst(o.SrcB, cs)
			}
			if aok && bok {
				var regs uop.Regs
				regs.Set(uop.Reg(0), a)
				regs.Set(uop.Reg(1), b)
				u := uop.UOp{Op: uop.CASSERT, Cond: o.Cond, SrcA: uop.Reg(0), SrcB: uop.Reg(1)}
				if out, err := uop.Eval(u, &regs, nil); err == nil && !out.AssertFired {
					o.Valid = false
					s.FoldedCP++
					changed = true
				}
			}
			continue
		case uop.LOAD, uop.STORE:
			// Absolutize a constant base, and (for loads) fold a constant
			// index into the displacement.
			if o.SrcA.Kind == RefOp {
				if base, ok := of.refConst(o.SrcA, cs); ok {
					o.SrcA = Ref{}
					o.Imm += int32(base)
					s.FoldedCP++
					changed = true
				}
			}
			if o.Op == uop.LOAD && o.SrcB.Kind == RefOp {
				if idx, ok := of.refConst(o.SrcB, cs); ok {
					o.SrcB = Ref{}
					o.Imm += int32(idx * uint32(o.Scale))
					o.Scale = 0
					s.FoldedCP++
					changed = true
				}
			}
			continue
		}

		if !cpFoldable(o.Op) {
			continue
		}
		a, aok := of.refConst(o.SrcA, cs)
		if o.Op == uop.MOV && o.SrcA.Kind == RefNone {
			continue
		}
		if o.SrcA.Kind != RefNone && !aok {
			continue
		}
		b, bok := uint32(0), true
		if !o.HasImmB() {
			b, bok = of.refConst(o.SrcB, cs)
		}
		if !bok {
			continue
		}
		if o.Op == uop.LEA && !o.HasImmB() && !bok {
			continue
		}
		if o.KeepCF && o.WritesFlags {
			// Value folds, but the flag result depends on incoming CF.
			if of.flagsConsumed(i) {
				continue
			}
		}
		v, f, ok := of.evalConst(i, a, b, cs)
		if !ok {
			continue
		}
		cs.val[i], cs.valKnown[i] = v, true
		if o.WritesFlags && !o.KeepCF {
			cs.flg[i], cs.flgKnown[i] = f, true
		}
		// Rewrite to LIMM when the flags (if any) are not consumed.
		if o.Op != uop.LIMM && (!o.WritesFlags || !of.flagsConsumed(i)) {
			if o.Op != uop.MOV || o.SrcA.Kind == RefOp {
				// Keep live-in MOVs; fold everything else.
				o.Op = uop.LIMM
				o.SrcA, o.SrcB, o.SrcF = Ref{}, Ref{}, Ref{}
				o.Imm = int32(v)
				o.WritesFlags, o.KeepCF = false, false
				s.FoldedCP++
				changed = true
			}
		}
	}
	return changed
}

// chainDelta reports whether op is an immediate add/subtract (including
// index-free LEA) and returns its signed delta.
func chainDelta(o *FrameOp) (int32, bool) {
	if !o.Valid || !o.HasImmB() {
		return 0, false
	}
	switch o.Op {
	case uop.ADD, uop.LEA:
		return o.Imm, true
	case uop.SUB:
		return -o.Imm, true
	}
	return 0, false
}

// raPass reassociates immediate add/sub chains and folds them into memory
// bases — the paper's gateway optimization that flattens stack-pointer
// manipulation.
func (of *OptFrame) raPass(s *Stats) bool {
	changed := false
	for i := int32(0); i < int32(len(of.Ops)); i++ {
		o := &of.Ops[i]
		if !o.Valid {
			continue
		}
		switch {
		case o.Op == uop.LOAD || o.Op == uop.STORE:
			// Fold an add/sub-immediate parent into the displacement.
			for o.SrcA.Kind == RefOp {
				p := &of.Ops[o.SrcA.Idx]
				d, ok := chainDelta(p)
				if !ok || !of.sameRegion(i, o.SrcA.Idx) {
					break
				}
				o.SrcA = p.SrcA
				o.Imm += d
				s.Reassoc++
				changed = true
			}
		default:
			if _, ok := chainDelta(o); !ok {
				continue
			}
			if o.WritesFlags && of.flagsConsumed(i) {
				continue
			}
			for o.SrcA.Kind == RefOp {
				p := &of.Ops[o.SrcA.Idx]
				d, ok := chainDelta(p)
				if !ok || !of.sameRegion(i, o.SrcA.Idx) {
					break
				}
				// Rewrite as a single ADD from the grandparent.
				self, _ := chainDelta(o)
				o.Op = uop.ADD
				o.Imm = self + d
				o.SrcA = p.SrcA
				o.WritesFlags, o.KeepCF = false, false
				s.Reassoc++
				changed = true
			}
		}
	}
	return changed
}

// cseKey identifies a computation for value numbering.
type cseKey struct {
	op     uop.Op
	cond   x86.Cond
	a, b   Ref
	f      Ref
	imm    int32
	scale  uint8
	keepCF bool
}

// cseKeyOf is op o's value-numbering key, with the sources of a
// commutative op in canonical order.
func cseKeyOf(o *FrameOp) cseKey {
	k := cseKey{op: o.Op, cond: o.Cond, a: o.SrcA, b: o.SrcB, f: o.SrcF,
		imm: o.Imm, scale: o.Scale, keepCF: o.KeepCF}
	if o.Op.Commutative() && !o.HasImmB() && refLess(k.b, k.a) {
		k.a, k.b = k.b, k.a
	}
	return k
}

// cseEligible ops for ALU value numbering.
func cseEligible(op uop.Op) bool {
	switch op {
	case uop.ADD, uop.ADC, uop.SUB, uop.SBB, uop.AND, uop.OR, uop.XOR,
		uop.SHL, uop.SHR, uop.SAR, uop.MULLO, uop.MULHIU, uop.MULHIS,
		uop.LEA, uop.LIMM, uop.SELECT:
		return true
	}
	return false
}

func refLess(a, b Ref) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Arch != b.Arch {
		return a.Arch < b.Arch
	}
	return a.Idx < b.Idx
}

// cseTable is csePass's value-numbering table, a map from cseKey to the
// index of the key's first occurrence: open addressing with linear
// probing over a power-of-two slot array of at least twice the frame's
// ops, so it is never more than half full. A slot is live only when its
// gen matches the table's, so reset empties it without clearing.
type cseTable struct {
	slots []cseSlot
	mask  uint32
	gen   uint32
}

type cseSlot struct {
	key cseKey
	idx int32
	gen uint32
}

// reset empties the table and sizes it for a frame of n ops.
func (t *cseTable) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if size > len(t.slots) {
		t.slots = make([]cseSlot, size)
		t.gen = 0
	}
	t.mask = uint32(size - 1)
	t.gen++
	if t.gen == 0 { // wrapped: stale stamps could read as live
		clear(t.slots)
		t.gen = 1
	}
}

// packRef folds a Ref into one word for hashing.
func packRef(r Ref) uint64 {
	return uint64(r.Kind) | uint64(r.Arch)<<8 | uint64(uint32(r.Idx))<<32
}

// home is k's first probe slot: a multiplicative hash over its fields.
func (t *cseTable) home(k *cseKey) uint32 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(k.op) | uint64(k.cond)<<8 | uint64(k.scale)<<16 | uint64(uint32(k.imm))<<32
	if k.keepCF {
		h |= 1 << 24
	}
	h = (h ^ packRef(k.a)) * m
	h = (h ^ packRef(k.b)) * m
	h = (h ^ packRef(k.f)) * m
	return uint32(h>>32) & t.mask
}

// lookupOrInsert returns the op index stored under k and true, or stores
// i under k and returns false: the first occurrence of a key wins.
func (t *cseTable) lookupOrInsert(k *cseKey, i int32) (int32, bool) {
	for h := t.home(k); ; h = (h + 1) & t.mask {
		sl := &t.slots[h]
		if sl.gen != t.gen {
			sl.key, sl.idx, sl.gen = *k, i, t.gen
			return i, false
		}
		if sl.key == *k {
			return sl.idx, true
		}
	}
}

// csePass commons identical ALU computations.
func (of *OptFrame) csePass(s *Stats, sc *scratch) bool {
	seen := &sc.cse
	seen.reset(len(of.Ops))
	changed := false
	for i := int32(0); i < int32(len(of.Ops)); i++ {
		o := &of.Ops[i]
		if !o.Valid || !cseEligible(o.Op) {
			continue
		}
		k := cseKeyOf(o)
		j, ok := seen.lookupOrInsert(&k, i)
		if !ok || !of.sameRegion(i, j) {
			continue
		}
		if o.FlagsLiveOut && o.WritesFlags {
			continue // must remain the architectural flag producer
		}
		of.replaceValueRefs(i, opRef(j))
		if o.WritesFlags {
			of.replaceFlagRefs(i, opRef(j))
		}
		if o.LiveOut {
			o.Op = uop.MOV
			o.SrcA, o.SrcB, o.SrcF = opRef(j), Ref{}, Ref{}
			o.Imm, o.WritesFlags, o.KeepCF = 0, false, false
		}
		s.CSEVals++
		changed = true
	}
	return changed
}

// Memory disambiguation helpers. Addresses are word-granular: two
// accesses with the same symbolic base (and, for loads, the same index
// register and scale) conflict only when their literal displacements
// overlap within 4 bytes. A STORE's SrcB is its data, never an index.

func memIndex(o *FrameOp) (Ref, uint8) {
	if o.Op == uop.LOAD {
		return o.SrcB, o.Scale
	}
	return Ref{}, 0
}

func sameAddr(a, b *FrameOp) bool {
	ai, as := memIndex(a)
	bi, bs := memIndex(b)
	if ai != bi || (ai.Kind != RefNone && as != bs) {
		return false
	}
	return a.SrcA == b.SrcA && a.Imm == b.Imm
}

func disjointSameBase(a, b *FrameOp) bool {
	ai, as := memIndex(a)
	bi, bs := memIndex(b)
	if ai != bi || (ai.Kind != RefNone && as != bs) {
		return false
	}
	if a.SrcA != b.SrcA {
		return false
	}
	d := a.Imm - b.Imm
	if d < 0 {
		d = -d
	}
	return d >= 4
}

// profilesDisjoint reports whether two memory ops touched provably
// different words during the construction execution.
func profilesDisjoint(a, b *FrameOp) bool {
	if a.ProfAddr == 0 || b.ProfAddr == 0 {
		return false
	}
	d := int64(a.ProfAddr) - int64(b.ProfAddr)
	if d < 0 {
		d = -d
	}
	return d >= 4
}

// canEliminate reports whether load i may be replaced by value ref r
// under the frame's scope. At frame scope any load can become a move (or
// vanish); in the sub-frame scopes a live-out load is only eliminable
// when the replacement is the destination register's own live-in value
// and nothing else writes that register — the paper's inter-block rule
// that keeps micro-op 12 but eliminates 14 in Figure 2.
func (of *OptFrame) canEliminate(i int32, r Ref) bool {
	o := &of.Ops[i]
	if of.Scope == ScopeFrame || !o.LiveOut {
		return true
	}
	if !(r.Kind == RefLiveIn && r.Arch == o.ArchDest) {
		return false
	}
	for j := range of.Ops {
		p := &of.Ops[j]
		if p.Valid && int32(j) != i && p.ArchDest == o.ArchDest {
			return false
		}
	}
	return true
}

// memPass eliminates loads via store forwarding and redundant-load CSE,
// speculating past non-aliasing stores when enabled.
func (of *OptFrame) memPass(s *Stats, opts Options, sc *scratch) bool {
	changed := false
	for i := int32(0); i < int32(len(of.Ops)); i++ {
		ld := &of.Ops[i]
		if !ld.Valid || ld.Op != uop.LOAD {
			continue
		}
		unsafeCandidates := sc.unsafe[:0]
	scan:
		for k := i - 1; k >= 0; k-- {
			o := &of.Ops[k]
			if !o.Valid || !o.IsMem() {
				continue
			}
			if !of.sameRegion(i, k) {
				break
			}
			switch o.Op {
			case uop.STORE:
				switch {
				case sameAddr(o, ld):
					if !opts.SF || !of.canEliminate(i, o.SrcB) {
						break scan
					}
					of.markUnsafe(unsafeCandidates, ld, s)
					of.eliminateLoad(i, o.SrcB)
					s.SFLoads++
					changed = true
					break scan
				case disjointSameBase(o, ld):
					// Provably different word: keep scanning.
				default:
					if opts.Speculative && profilesDisjoint(o, ld) {
						unsafeCandidates = append(unsafeCandidates, k)
						sc.unsafe = unsafeCandidates
						continue
					}
					break scan
				}
			case uop.LOAD:
				if sameAddr(o, ld) {
					if !opts.CSE || !of.canEliminate(i, opRef(k)) {
						break scan
					}
					of.markUnsafe(unsafeCandidates, ld, s)
					of.eliminateLoad(i, opRef(k))
					s.CSELoads++
					changed = true
					break scan
				}
			}
		}
	}
	return changed
}

// eliminateLoad replaces load i's value with ref r; the load either
// becomes a MOV (when live-out) or is left for DCE.
func (of *OptFrame) eliminateLoad(i int32, r Ref) {
	o := &of.Ops[i]
	of.replaceValueRefs(i, r)
	if o.LiveOut {
		o.Op = uop.MOV
		o.SrcA, o.SrcB = r, Ref{}
		o.Imm = 0
		o.MemSub = -1
	} else {
		// No consumers remain; DCE removes it.
		o.Op = uop.MOV
		o.SrcA, o.SrcB = r, Ref{}
		o.Imm = 0
		o.MemSub = -1
	}
}

// markUnsafe marks the speculated-across stores unsafe, guarding each
// with the eliminated load's addressing (captured before the load is
// rewritten).
func (of *OptFrame) markUnsafe(candidates []int32, ld *FrameOp, s *Stats) {
	for _, k := range candidates {
		if !of.Ops[k].Unsafe {
			of.Ops[k].Unsafe = true
			s.UnsafeStores++
		}
		idx, scale := memIndex(ld)
		of.UnsafeGuards = append(of.UnsafeGuards, UnsafeGuard{
			Store: k, Base: ld.SrcA, Index: idx, Scale: scale, Imm: ld.Imm,
			InstIdx: ld.InstIdx, MemSub: ld.MemSub, ProfAddr: ld.ProfAddr,
		})
	}
}

// assertPass fuses a flag-producing compare with its assertion into a
// single CASSERT micro-op (the paper's value assertion optimization).
func (of *OptFrame) assertPass(s *Stats) {
	for i := int32(0); i < int32(len(of.Ops)); i++ {
		o := &of.Ops[i]
		if !o.Valid || o.Op != uop.ASSERT || o.SrcF.Kind != RefOp {
			continue
		}
		p := &of.Ops[o.SrcF.Idx]
		if !p.Valid || !p.WritesFlags || p.KeepCF || !of.sameRegion(i, o.SrcF.Idx) {
			continue
		}
		switch {
		case p.Op == uop.SUB:
			o.Op = uop.CASSERT
			o.SrcA, o.SrcB, o.Imm = p.SrcA, p.SrcB, p.Imm
			o.SrcF = Ref{}
			s.FusedAsserts++
		case p.Op == uop.AND && !p.HasImmB() && p.SrcA == p.SrcB:
			// TEST r,r followed by an assert: equivalent to comparing r
			// with zero for every modeled condition.
			o.Op = uop.CASSERT
			o.SrcA, o.SrcB, o.Imm = p.SrcA, Ref{}, 0
			o.SrcF = Ref{}
			s.FusedAsserts++
		}
	}
}

// sideEffect ops can never be removed by DCE. Stores are never removed
// (the paper's rule); asserts enforce frame validity; NOPs and internal
// jumps belong to the NOP pass so that the ablation switch is meaningful.
func sideEffect(op uop.Op) bool {
	switch op {
	case uop.STORE, uop.ASSERT, uop.CASSERT, uop.JMP, uop.JR, uop.BR, uop.NOP:
		return true
	}
	return false
}

// dcePass removes ops whose value and flags are unused and not live-out.
func (of *OptFrame) dcePass(s *Stats, sc *scratch) {
	n := len(of.Ops)
	if cap(sc.valUse) < n {
		sc.valUse, sc.flgUse = make([]int32, n), make([]int32, n)
	}
	valUse, flgUse := sc.valUse[:n], sc.flgUse[:n]
	for {
		clear(valUse)
		clear(flgUse)
		for j := range of.Ops {
			o := &of.Ops[j]
			if !o.Valid {
				continue
			}
			if o.SrcA.Kind == RefOp {
				valUse[o.SrcA.Idx]++
			}
			if o.SrcB.Kind == RefOp {
				valUse[o.SrcB.Idx]++
			}
			if o.SrcF.Kind == RefOp {
				flgUse[o.SrcF.Idx]++
			}
		}
		// writers[r] counts valid ops writing architectural register r,
		// for the identity-move rule below.
		var writers [8]int
		for j := range of.Ops {
			o := &of.Ops[j]
			if o.Valid && o.ArchDest != uop.RegNone && o.ArchDest < 8 {
				writers[o.ArchDest]++
			}
		}
		removed := false
		for i := range of.Ops {
			o := &of.Ops[i]
			if !o.Valid || sideEffect(o.Op) {
				continue
			}
			if valUse[i] > 0 {
				continue
			}
			if o.WritesFlags && (flgUse[i] > 0 || o.FlagsLiveOut) {
				continue
			}
			if o.LiveOut {
				// Identity move: a live-out MOV of a register's own live-in
				// value is architecturally a no-op (the paper's full
				// elimination of store-forwarded loads, e.g. micro-ops 12
				// and 14 in Figure 2). At frame scope intermediate writers
				// are invisible, so only the end state matters; at
				// sub-frame scopes the register must have no other writer,
				// because intermediate exits expose it.
				if o.Op == uop.MOV && o.SrcA.Kind == RefLiveIn &&
					o.SrcA.Arch == o.ArchDest && o.ArchDest < 8 &&
					(of.Scope == ScopeFrame || writers[o.ArchDest] == 1) &&
					of.Final[o.ArchDest] == opRef(int32(i)) {
					o.Valid = false
					s.RemovedDCE++
					removed = true
				}
				continue
			}
			o.Valid = false
			s.RemovedDCE++
			removed = true
		}
		if !removed {
			return
		}
	}
}
