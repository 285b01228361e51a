package frame

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

// Decoder caches x86 decode and micro-op translation per PC — the
// Micro-Op Injector's decode stage.
type Decoder struct {
	tr    *trace.Trace
	insts map[uint32]x86.Inst
	uops  map[uint32][]uop.UOp
}

// NewDecoder returns a decoder over the trace's code image.
func NewDecoder(tr *trace.Trace) *Decoder {
	return &Decoder{
		tr:    tr,
		insts: make(map[uint32]x86.Inst),
		uops:  make(map[uint32][]uop.UOp),
	}
}

// At returns the decoded instruction and micro-op flow at pc.
func (d *Decoder) At(pc uint32) (x86.Inst, []uop.UOp, error) {
	if in, ok := d.insts[pc]; ok {
		return in, d.uops[pc], nil
	}
	bts := d.tr.InstBytes(pc)
	if bts == nil {
		return x86.Inst{}, nil, fmt.Errorf("frame: PC %#x outside code image", pc)
	}
	in, err := x86.Decode(bts)
	if err != nil {
		return x86.Inst{}, nil, fmt.Errorf("frame: decode at %#x: %w", pc, err)
	}
	us, err := translate.UOps(in, pc)
	if err != nil {
		return x86.Inst{}, nil, err
	}
	d.insts[pc] = in
	d.uops[pc] = us
	return in, us, nil
}

// FeedTrace replays a captured trace through the constructor: every
// retired x86 instruction is decoded, translated, and offered with its
// dynamic outcome and memory addresses. The pending frame is flushed at
// the end.
func FeedTrace(c *Constructor, tr *trace.Trace) error {
	d := NewDecoder(tr)
	addrs := make([]uint32, 0, 4)
	for i := range tr.Records {
		r := &tr.Records[i]
		in, uops, err := d.At(r.PC)
		if err != nil {
			return err
		}
		addrs = addrs[:0]
		for _, m := range r.MemOps {
			addrs = append(addrs, m.Addr)
		}
		c.Retire(r.PC, in, uops, r.NextPC, addrs)
	}
	c.Flush()
	return nil
}
