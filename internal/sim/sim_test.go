package sim

import (
	"context"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

func runOne(t *testing.T, name string, mode pipeline.Mode, insts int) Result {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Traces = 1 // keep unit tests fast
	r, err := RunWorkload(context.Background(), p, mode, Options{MaxInsts: insts})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestModesSanity: every configuration produces a plausible IPC and
// internally consistent accounting on a SPEC-like workload.
func TestModesSanity(t *testing.T) {
	insts := 60_000
	if testing.Short() {
		insts = 15_000
	}
	results := map[pipeline.Mode]Result{}
	for _, mode := range []pipeline.Mode{
		pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt,
	} {
		r := runOne(t, "bzip2", mode, insts)
		results[mode] = r
		s := r.Stats
		ipc := r.IPC()
		t.Logf("%-3s ipc=%.3f cycles=%d x86=%d uops=%d/%d cover=%.2f aborts=%d mispred=%d",
			mode, ipc, s.Cycles, s.X86Retired, s.UOpsRetired, s.UOpsBaseline,
			s.FrameCoverage(), s.FrameAborts, s.Mispredicts)
		if ipc < 0.1 || ipc > 8 {
			t.Errorf("%s: implausible IPC %.3f", mode, ipc)
		}
		if s.X86Retired == 0 || s.Cycles == 0 {
			t.Errorf("%s: empty run", mode)
		}
		// sum(Bins) == Cycles is pinned across all profiles, optimizer
		// subsets, and replay modes by TestBinConservation.
	}

	// Structural expectations on a high-bias, high-redundancy workload.
	rp, rpo := results[pipeline.ModeRePLay], results[pipeline.ModeRePLayOpt]
	if rpo.Stats.UOpReduction() <= 0 {
		t.Errorf("RPO removed no micro-ops: %.3f", rpo.Stats.UOpReduction())
	}
	if rp.Stats.UOpReduction() != 0 {
		t.Errorf("RP shows micro-op reduction: %.3f", rp.Stats.UOpReduction())
	}
	if rpo.Stats.FrameCoverage() == 0 || rp.Stats.FrameCoverage() == 0 {
		t.Error("no frame coverage in rePLay modes")
	}
	if rpo.IPC() <= rp.IPC() {
		t.Errorf("optimization did not help on bzip2: RP %.3f vs RPO %.3f", rp.IPC(), rpo.IPC())
	}
}

// TestStreamEndsCleanly: the engine stops at the stream end without
// spinning.
func TestStreamEndsCleanly(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := newCPUStream(prog)
	eng := pipeline.NewFrom(pipeline.DefaultConfig(pipeline.ModeRePLayOpt), pipeline.ModeRePLayOpt, stream)
	// Ask for more instructions than exist before a reasonable bound; the
	// generator's programs are effectively unbounded, so cap small and
	// ensure Run returns exactly the cap.
	got := eng.Run(5_000)
	// Frame commits retire whole frames, so the budget may overshoot by
	// less than one frame.
	if got < 5_000 || got > 5_000+256 {
		t.Errorf("retired %d, want ~5000", got)
	}
}
