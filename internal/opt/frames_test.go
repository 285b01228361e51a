package opt_test

import (
	"testing"
	"time"

	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/workload"
)

type nopRecorder struct{}

func (nopRecorder) RecordPass(uint64, string, int, int) {}

// singlePassOff is every optimizer configuration with at most one pass
// switched off: all on, then each of the six ablation switches off.
func singlePassOff() []opt.Options {
	out := []opt.Options{opt.AllOptions()}
	for _, off := range []func(*opt.Options){
		func(o *opt.Options) { o.NOP = false },
		func(o *opt.Options) { o.CP = false },
		func(o *opt.Options) { o.RA = false },
		func(o *opt.Options) { o.CSE = false },
		func(o *opt.Options) { o.SF = false },
		func(o *opt.Options) { o.Assert = false },
	} {
		o := opt.AllOptions()
		off(&o)
		out = append(out, o)
	}
	return out
}

// checkRefsBackward fails unless every valid op's producer references
// name an earlier op: the invariant that lets the passes scan only
// forward of an op for its consumers.
func checkRefsBackward(t *testing.T, of *opt.OptFrame, what string) {
	t.Helper()
	for i := range of.Ops {
		o := &of.Ops[i]
		if !o.Valid {
			continue
		}
		for _, r := range []opt.Ref{o.SrcA, o.SrcB, o.SrcF} {
			if r.Kind == opt.RefOp && int(r.Idx) >= i {
				t.Fatalf("%s: op %d (%v) references p%d", what, i, o, r.Idx)
			}
		}
	}
}

// TestRefsPointBackward checks the backward-reference invariant on the
// frames of trace 0 of every profile, after Remap and after the
// optimizer, under every single-pass-off configuration at all three
// scopes.
func TestRefsPointBackward(t *testing.T) {
	scopes := []opt.Scope{opt.ScopeIntraBlock, opt.ScopeInterBlock, opt.ScopeFrame}
	for _, p := range workload.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			frames, err := sim.CollectFrames(p, 30_000, 24)
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) == 0 {
				t.Fatal("no frames constructed")
			}
			for _, opts := range singlePassOff() {
				for _, scope := range scopes {
					for _, f := range frames {
						of := opt.Remap(f, scope)
						checkRefsBackward(t, of, "remap")
						opt.OptimizeTraced(of, opts, nopRecorder{})
						checkRefsBackward(t, of, "optimized")
						opt.PutOptFrame(of)
					}
				}
			}
		})
	}
}

// BenchmarkOptimize times the optimizer alone over the frames of one
// profile at frame scope with every pass on. Each iteration optimizes
// every frame once from a copy of its remapped form, so Remap stays out
// of the timing. ns/frame is per frame; B/op and allocs/op count one
// iteration over all of the profile's frames.
func BenchmarkOptimize(b *testing.B) {
	for _, name := range []string{"gzip", "excel"} {
		b.Run(name, func(b *testing.B) {
			p, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			frames, err := sim.CollectFrames(p, 60_000, 256)
			if err != nil {
				b.Fatal(err)
			}
			if len(frames) == 0 {
				b.Fatal("no frames")
			}
			bases := make([]*opt.OptFrame, len(frames))
			for i, f := range frames {
				bases[i] = opt.Remap(f, opt.ScopeFrame)
			}
			work := new(opt.OptFrame)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for _, base := range bases {
					ops, guards := work.Ops[:0], work.UnsafeGuards[:0]
					*work = *base
					work.Ops, work.UnsafeGuards = append(ops, base.Ops...), guards
					opt.Optimize(work, opt.AllOptions())
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
		})
	}
}
