package pipeline_test

import (
	"fmt"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/translate"
	"repro/internal/workload"
)

// recordingStream replays a recording as a pipeline.Source.
type recordingStream struct {
	rec *translate.Recording
	pos int
}

func (r *recordingStream) NextInto(s *pipeline.Rec) bool {
	if r.pos >= r.rec.Len() {
		return false
	}
	s.Entry, s.NextPC, s.MemAddrs = r.rec.At(r.pos)
	r.pos++
	return true
}

// TestFramePrograms verifies the dispatch program of every frame that
// enters the frame cache, over trace 0 of all 14 profiles, in RP and RPO
// with rescheduling off and on.
func TestFramePrograms(t *testing.T) {
	const insts = 40_000
	var resched int
	for _, p := range workload.Profiles {
		prog, err := workload.Generate(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := sim.Capture(prog, insts)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []pipeline.Mode{pipeline.ModeRePLay, pipeline.ModeRePLayOpt} {
			for _, rs := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/resched=%v", p.Name, mode, rs), func(t *testing.T) {
					cfg := pipeline.DefaultConfig(mode)
					cfg.OptReschedule = rs
					eng := pipeline.NewFrom(cfg, mode, &recordingStream{rec: rec})
					check := pipeline.CheckPrograms(eng, t.Errorf)
					eng.Run(insts)
					if check.Entries == 0 {
						t.Fatal("no frame entered the cache")
					}
					if check.Rescheduled > 0 != (rs && mode == pipeline.ModeRePLayOpt) {
						t.Errorf("%d of %d entries rescheduled", check.Rescheduled, check.Entries)
					}
					resched += check.Rescheduled
				})
			}
		}
	}
	if resched == 0 {
		t.Error("no rescheduled frame was checked")
	}
}
