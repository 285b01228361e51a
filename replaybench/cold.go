package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

// coldSession runs one class of profiles under RPO with the capture
// cache and run memo off, so every round interprets and simulates every
// trace for real.
type coldSession struct {
	name     string
	p        params
	profiles []workload.Profile
}

func setupCold(spec bool) func(params) (session, error) {
	return func(p params) (session, error) {
		name, ps := "desktop-cold", workload.DesktopProfiles()
		if spec {
			name, ps = "spec-cold", workload.SPECProfiles()
		}
		s := &coldSession{name: name, p: p, profiles: seededProfiles(ps, p)}
		if err := generateAll(s.profiles); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (s *coldSession) close() {}

func (s *coldSession) run(deadline time.Time, rec *recorder, hs *hostScale) *result {
	kinds := []opKind{plain}
	if rec != nil {
		kinds = []opKind{plain, serial, traced}
	}
	return runSequential(s.name, s.p, kinds, deadline, rec, hs, s.round)
}

// afterRun takes the simulator layers' costs from the traced rounds.
func (s *coldSession) afterRun(rec *recorder, res *result) {
	if rec != nil {
		addSimLayers(rec, res, s.profiles)
	}
}

// round simulates every profile once. Plain rounds call sim.RunWorkload,
// which fans a profile's traces out over the CPUs. Serial and traced
// rounds run the benchmark's own path on one CPU, one trace after
// another, untraced and traced: serial rounds are the reference for the
// fan-out's speed-up and for the tracing's cost. (sim cannot run a
// profile's traces strictly in turn: with one CPU or a parallelism of
// one its caller still works beside one worker, and on desktop-cold
// that interleaving cost about a fifth of the round.)
func (s *coldSession) round(kind opKind, t *opTrace, parent int) (opOut, error) {
	if kind != plain {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	out := opOut{rows: make(map[string]any, len(s.profiles))}
	for _, p := range s.profiles {
		var st pipeline.Stats
		if kind == plain {
			r, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
				sim.Options{DisableCache: true})
			if err != nil {
				return out, err
			}
			st = r.Stats
		} else {
			for i := 0; i < p.Traces; i++ {
				ts, err := tracedTrace(t, parent, p, i, p.XInsts, pipeline.ModeRePLayOpt)
				if err != nil {
					return out, err
				}
				st.Add(&ts)
			}
		}
		out.rows[p.Name] = st
		out.insts += st.X86Retired
	}
	return out, nil
}
