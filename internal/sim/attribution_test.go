package sim

import (
	"context"
	"testing"

	"repro/internal/opt"
	"repro/internal/workload"
)

// countingRecorder tallies per-pass attribution for one Optimize call.
type countingRecorder struct {
	killed    map[string]int
	rewritten map[string]int
}

func (r *countingRecorder) RecordPass(frameID uint64, pass string, killed, rewritten int) {
	if r.killed == nil {
		r.killed = map[string]int{}
		r.rewritten = map[string]int{}
	}
	r.killed[pass] += killed
	r.rewritten[pass] += rewritten
}

func (r *countingRecorder) killedTotal() int {
	n := 0
	for _, k := range r.killed {
		n += k
	}
	return n
}

// TestAttributionConservation pins the attribution invariant for every
// workload profile under every optimization option subset: the summed
// per-pass killed micro-ops equal the aggregate UOpsRemoved of
// opt.Stats. A micro-op only leaves a frame by a pass flipping Valid
// inside a traced invocation, so any drift means a pass mutated the
// frame outside its measurement window.
func TestAttributionConservation(t *testing.T) {
	for _, p := range workload.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			frames, err := CollectFrames(p, 30_000, 24)
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) == 0 {
				t.Fatalf("no frames constructed for %s", p.Name)
			}
			// All 64 subsets of the six switches, speculation off and on.
			for mask := 0; mask < 64; mask++ {
				for _, spec := range []bool{false, true} {
					opts := opt.Options{
						NOP:    mask&1 != 0,
						CP:     mask&2 != 0,
						RA:     mask&4 != 0,
						CSE:    mask&8 != 0,
						SF:     mask&16 != 0,
						Assert: mask&32 != 0,

						Speculative: spec,
					}
					for fi, f := range frames {
						of := opt.Remap(f, opt.ScopeFrame)
						rec := &countingRecorder{}
						st := opt.OptimizeTraced(of, opts, rec)
						if got, want := rec.killedTotal(), st.Removed(); got != want {
							t.Fatalf("frame %d mask=%06b spec=%v: per-pass killed %d != removed %d (passes %v)",
								fi, mask, spec, got, want, rec.killed)
						}
					}
				}
			}
			// The full configuration must also conserve under the weaker
			// scopes (different elimination legality rules).
			for _, scope := range []opt.Scope{opt.ScopeIntraBlock, opt.ScopeInterBlock} {
				for fi, f := range frames {
					of := opt.Remap(f, scope)
					rec := &countingRecorder{}
					st := opt.OptimizeTraced(of, opt.AllOptions(), rec)
					if got, want := rec.killedTotal(), st.Removed(); got != want {
						t.Fatalf("frame %d scope=%v: per-pass killed %d != removed %d",
							fi, scope, got, want)
					}
				}
			}
		})
	}
}

// TestAttributionEndToEnd checks the sim-level driver: a full RPO run's
// attribution table must agree with the aggregate optimizer stats of
// the same measured window, and the tables must be non-trivial.
func TestAttributionEndToEnd(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Attribution(context.Background(), []workload.Profile{p}, Options{MaxInsts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %d", len(rows))
	}
	row := rows[0]
	if len(row.Passes) == 0 {
		t.Fatal("no passes attributed")
	}
	if got, want := row.KilledTotal(), uint64(row.Opt.Removed()); got != want {
		t.Errorf("killed %d != removed %d (passes %+v)", got, want, row.Passes)
	}
}
