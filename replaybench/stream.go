package main

import (
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/frame"
	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/workload"
	"repro/internal/x86"
)

// The traced simulation path: it drives pipeline.Engine the way
// sim.RunWorkload does with caching disabled, but over an interpreter
// adapter of the benchmark's own, so each layer's calls can be timed.
// TestTracedStatsMatchRunWorkload pins the two paths to bit-identical
// Stats.

// warmupFrac is sim's default share of a trace's budget excluded from
// measurement.
const warmupFrac = 0.4

// interpBatch is how many instructions one cpu.interp span steps: the
// per-span timer cost stays well under a percent of the stepping cost.
const interpBatch = 256

// Arena sizing for per-slot memory addresses, as in sim's stream.
const (
	addrChunk     = 16 << 10
	maxSlotMemOps = 8
)

type decodedInst struct {
	in   x86.Inst
	uops []uop.UOp
}

// stepped is one instruction the interpreter retired ahead of the
// engine; Next expands it into a pipeline.Slot.
type stepped struct {
	pc, nextPC uint32
	d          *decodedInst
	addrs      []uint32
}

// tracedStream is a pipeline.Stream over the functional interpreter that
// steps interpreter batches ahead of the engine, timing each batch as a
// cpu.interp span and each first-visit decode as an x86.decode span.
type tracedStream struct {
	t      *opTrace
	parent int

	c       *cpu.CPU
	decoded map[uint32]*decodedInst
	addrs   []uint32
	buf     []stepped
	pos     int
	done    bool  // the interpreter stopped; buf holds the last slots
	err     error // why it stopped, if it failed
	failed  bool  // the engine read past the last slot into err
	steps   uint64
}

func (s *tracedStream) Next() (pipeline.Slot, bool) {
	if s.pos == len(s.buf) {
		if !s.done {
			s.refill()
		}
		if s.pos == len(s.buf) {
			s.failed = s.err != nil
			return pipeline.Slot{}, false
		}
	}
	st := &s.buf[s.pos]
	s.pos++
	return pipeline.Slot{PC: st.pc, Inst: st.d.in, UOps: st.d.uops, NextPC: st.nextPC, MemAddrs: st.addrs}, true
}

func (s *tracedStream) refill() {
	b := s.t.begin("cpu.interp", s.parent)
	s.buf, s.pos = s.buf[:0], 0
	for len(s.buf) < interpBatch && !s.done {
		if s.c.Halted {
			s.done = true
			break
		}
		pc := s.c.PC
		d, ok := s.decoded[pc]
		if !ok {
			ds := s.t.begin("x86.decode", b)
			in, err := x86.Decode(s.c.Mem.ReadBytes(pc, 15))
			var us []uop.UOp
			if err == nil {
				us, err = translate.UOps(in, pc)
			}
			s.t.end(ds)
			if err != nil {
				s.err, s.done = err, true
				break
			}
			d = &decodedInst{in: in, uops: us}
			s.decoded[pc] = d
		}
		if d.in.Op == x86.OpHLT {
			s.done = true
			break
		}
		if cap(s.addrs)-len(s.addrs) < maxSlotMemOps {
			s.addrs = make([]uint32, 0, addrChunk)
		}
		base := len(s.addrs)
		grown, nextPC, err := s.c.StepAddrs(s.addrs)
		if err != nil {
			s.err, s.done = err, true
			break
		}
		s.addrs = grown
		var addrs []uint32
		if n := len(grown); n > base {
			addrs = grown[base:n:n]
		}
		s.buf = append(s.buf, stepped{pc: pc, nextPC: nextPC, d: d, addrs: addrs})
		s.steps++
	}
	s.t.end(b)
}

// passSpans records each optimizer pass invocation as an opt.<pass>
// span under the engine span.
type passSpans struct {
	t      *opTrace
	parent int
}

var passSpanNames = map[string]string{
	"nop": "opt.nop", "cp": "opt.cp", "ra": "opt.ra", "cse": "opt.cse",
	"mem": "opt.mem", "assert": "opt.assert", "dce": "opt.dce",
}

func (p passSpans) RecordPass(uint64, string, int, int) {}

func (p passSpans) RecordPassTimed(_ uint64, pass string, _, _ int, d time.Duration) {
	name, ok := passSpanNames[pass]
	if !ok {
		name = "opt." + pass
	}
	end := p.t.rec.now()
	p.t.add(name, p.parent, end-int64(d), end)
}

// tracedTrace simulates one hot-spot trace of the profile in the mode
// with every layer call timed, and returns the measured-window Stats.
// The instructions it interpreted count in the operation's steps. With t
// nil it records nothing: the same path untraced.
func tracedTrace(t *opTrace, parent int, p workload.Profile, idx, budget int, mode pipeline.Mode) (pipeline.Stats, error) {
	g := t.begin("workload.generate", parent)
	prog, err := workload.Generate(p, idx)
	t.end(g)
	if err != nil {
		return pipeline.Stats{}, err
	}
	e := t.begin("pipeline.engine", parent)
	s := &tracedStream{t: t, parent: e, c: prog.NewCPU(), decoded: map[uint32]*decodedInst{},
		buf: make([]stepped, 0, interpBatch)}
	eng := pipeline.New(pipeline.DefaultConfig(mode), mode, s)
	if t != nil {
		t.spans[e].label = fmt.Sprintf("%s/%s/t%d", p.Name, mode, idx)
		eng.SetPassRecorder(passSpans{t: t, parent: e})
	}
	warm := uint64(float64(budget) * warmupFrac)
	eng.Run(warm)
	eng.ResetStats()
	eng.Run(uint64(budget) - warm)
	t.end(e)
	if t != nil {
		t.steps += s.steps
	}
	if s.failed {
		return pipeline.Stats{}, fmt.Errorf("sim %s trace %d: %w", p.Name, idx, s.err)
	}
	return eng.Stats(), nil
}

// simLayers are the simulator layers the traced path times, reported as
// self time per instruction interpreted.
var simLayers = []string{"cpu.interp", "x86.decode", "workload.generate", "pipeline.engine",
	"opt.nop", "opt.cp", "opt.ra", "opt.cse", "opt.mem", "opt.assert", "opt.dce"}

// addSimLayers reports the simulator layers' costs from the traced
// simulations the run recorded, and the cost of frame construction
// alone over the first trace of each profile at its XInsts budget.
func addSimLayers(rec *recorder, res *result, profiles []workload.Profile) {
	self, steps := rec.selfPerName()
	for _, name := range simLayers {
		res.layers[name+"_ns_per_inst"] = perInst(self[name], steps)
	}
	ns, insts, err := frameConstruct(profiles)
	if err != nil {
		res.fail("frame construction: %v", err)
		return
	}
	res.layers["frame.construct_ns_per_inst"] = perInst(ns, insts)
}

// frameConstruct times frame.FeedTrace alone; inside the engine,
// construction is not separable from the timing model. The capture that
// feeds it is not timed.
func frameConstruct(profiles []workload.Profile) (time.Duration, uint64, error) {
	var total time.Duration
	var insts uint64
	cfg := pipeline.DefaultConfig(pipeline.ModeRePLayOpt).FrameCfg
	for _, p := range profiles {
		prog, err := workload.Generate(p, 0)
		if err != nil {
			return 0, 0, err
		}
		tr, err := prog.Capture(p.XInsts)
		if err != nil {
			return 0, 0, err
		}
		cons := frame.NewConstructor(cfg, func(*frame.Frame) {})
		start := time.Now()
		if err := frame.FeedTrace(cons, tr); err != nil {
			return 0, 0, err
		}
		total += time.Since(start)
		insts += uint64(len(tr.Records))
	}
	return total, insts, nil
}

func perInst(d time.Duration, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(insts)
}
