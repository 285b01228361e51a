package frame

import (
	"errors"
	"fmt"

	"repro/internal/trace"
	"repro/internal/translate"
)

// FeedTrace replays a captured trace through the constructor: every
// retired x86 instruction is decoded and translated once per PC, through
// a table over the trace's code image, and offered with its dynamic
// outcome and memory addresses. The pending frame is flushed at the end.
// The table is new on each call, so c must not have retired entries of
// another table: feed it one trace.
func FeedTrace(c *Constructor, tr *trace.Trace) error {
	tab := translate.NewTable(tr.CodeBase, len(tr.Code))
	addrs := make([]uint32, 0, 4)
	for i := range tr.Records {
		r := &tr.Records[i]
		e := tab.Find(r.PC)
		if e < 0 {
			bts := tr.InstBytes(r.PC)
			if bts == nil {
				return fmt.Errorf("frame: PC %#x outside code image", r.PC)
			}
			var err error
			if e, err = tab.Decode(r.PC, bts); err != nil {
				var de *translate.DecodeError
				if errors.As(err, &de) {
					return fmt.Errorf("frame: decode at %#x: %w", r.PC, de.Err)
				}
				return err
			}
		}
		addrs = addrs[:0]
		for _, m := range r.MemOps {
			addrs = append(addrs, m.Addr)
		}
		c.Retire(tab.Entry(e), r.NextPC, addrs)
	}
	c.Flush()
	return nil
}
