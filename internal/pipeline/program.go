package pipeline

import (
	"slices"
	"sync"

	"repro/internal/opt"
	"repro/internal/translate"
	"repro/internal/uop"
)

// The ready table a frame fetch reads its sources from: slot 0 is always
// zero (an absent source, or one produced by an invalid or not yet
// issued op), the next uop.NumRegs slots hold the live-in architectural
// registers, laid out as in the decoded path's table (Engine.regReady),
// and readyOps+p holds the completion time of the program's p-th µop.
const (
	readyLiveIn = translate.ReadyRegs
	readyOps    = readyLiveIn + uop.NumRegs
)

// progOp is one valid µop of a compiled frame, in issue order: what
// dispatch needs, resolved once when the frame enters the frame cache.
type progOp struct {
	srcA, srcB, srcF int32 // ready-table indices
	instIdx          int32
	profAddr         uint32
	lat              uint8
	class            uint8
	flags            uint8
	memSub           int8
}

// liveOut delivers a frame-end producer's completion time to the
// architectural scoreboard at commit.
type liveOut struct {
	reg   uop.Reg
	ready int32 // ready-table index
}

// cachedFrame is a frame-cache entry: the optimized frame and its
// dispatch program, compiled once at insert so that every fetch runs the
// program and re-derives nothing from the frame's ops. len(prog) is the
// frame's valid µop count, validLoads its valid loads.
type cachedFrame struct {
	of         *opt.OptFrame
	prog       []progOp
	liveOuts   []liveOut
	validLoads int
}

var entryPool = sync.Pool{New: func() any { return new(cachedFrame) }}

// compileFrame builds the frame's dispatch program. The program follows
// of.Iterate's order: the rescheduled one when Schedule ran, buffer order
// otherwise.
func (e *Engine) compileFrame(of *opt.OptFrame) *cachedFrame {
	c := entryPool.Get().(*cachedFrame)
	c.of = of
	c.prog = slices.Grow(c.prog[:0], of.NumValid())
	c.liveOuts = c.liveOuts[:0]
	c.validLoads = 0
	// pos maps a buffer index to its issue position plus one (0: not
	// issued yet).
	n := len(of.Ops)
	if cap(e.scratchPos) < n {
		e.scratchPos = make([]int32, n)
	}
	pos := e.scratchPos[:n]
	clear(pos)
	// A source reads its producer's slot only if the producer issued
	// earlier in this fetch; otherwise it reads 0, as a freshly cleared
	// value table would.
	ref := func(r opt.Ref) int32 {
		switch r.Kind {
		case opt.RefLiveIn:
			return readyLiveIn + int32(r.Arch)
		case opt.RefOp:
			if p := pos[r.Idx]; p > 0 {
				return readyOps + p - 1
			}
		}
		return 0
	}
	of.Iterate(func(i int32, o *opt.FrameOp) {
		c.prog = append(c.prog, progOp{
			srcA: ref(o.SrcA), srcB: ref(o.SrcB), srcF: ref(o.SrcF),
			instIdx: o.InstIdx, profAddr: o.ProfAddr, memSub: o.MemSub,
			lat: o.Op.Latency(), class: o.Op.Class(), flags: o.Op.DispatchFlags(),
		})
		pos[i] = int32(len(c.prog))
		if o.Op == uop.LOAD {
			c.validLoads++
		}
	})
	for r := uop.Reg(0); r < 8; r++ {
		if ready := ref(of.Final[r]); ready >= readyOps {
			c.liveOuts = append(c.liveOuts, liveOut{r, ready})
		}
	}
	if ready := ref(of.FinalFlags); ready >= readyOps {
		c.liveOuts = append(c.liveOuts, liveOut{uop.FLAGS, ready})
	}
	return c
}

// putEntry recycles a displaced entry's program buffers.
func putEntry(c *cachedFrame) {
	c.of = nil
	entryPool.Put(c)
}
