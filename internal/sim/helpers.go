package sim

import (
	"repro/internal/frame"
	"repro/internal/workload"
)

// CollectFrames constructs up to max frames from the first insts
// retired instructions of a workload's first hot-spot trace (used by
// optimizer micro-benchmarks).
func CollectFrames(p workload.Profile, insts, max int) ([]*frame.Frame, error) {
	prog, err := workload.Generate(p, 0)
	if err != nil {
		return nil, err
	}
	rec, err := Capture(prog, insts)
	if err != nil {
		return nil, err
	}
	var out []*frame.Frame
	cons := frame.NewConstructor(frame.DefaultConfig(), func(f *frame.Frame) {
		if len(out) < max {
			out = append(out, f)
		}
	})
	for i := range rec.Len() {
		cons.Retire(rec.At(i))
	}
	cons.Flush()
	return out, nil
}
