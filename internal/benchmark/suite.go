package benchmark

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/frame"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/reuse"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// suiteProfiles are the workloads the standardized suite measures: one
// per class so a regression that only hits, say, the content-creation
// frame shapes still shows up.
var suiteProfiles = []string{"gzip", "access", "photo"}

// Suite returns the standardized benchmark set, in run order:
//
//   - sim_wall_ms/<p>: end-to-end RunWorkload wall time under RPO with
//     the capture/memo layers disabled, so every repetition interprets
//     and simulates for real.
//   - engine_uops_per_sec: retired-uop throughput of pipeline.Engine
//     alone over a pre-captured slot stream (no interpreter cost).
//   - opt_uops_per_sec: optimizer throughput over pre-constructed
//     frames, measured through OptimizeTraced with a live attribution
//     collector — the hook path replayd's per-pass tables use.
//   - replayd_request_ms: end-to-end POST /v1/run latency against an
//     in-process replayd core with a warmed run memo, i.e. the serving
//     overhead (routing, coalescing, queueing, JSON) around a hot job.
func Suite() []Spec {
	return suiteFor(suiteProfiles)
}

func suiteFor(profiles []string) []Spec {
	var specs []Spec
	for _, name := range profiles {
		specs = append(specs, simWallSpec(name))
	}
	specs = append(specs, engineSpec(), optSpec(), replaydSpec())
	return specs
}

// selectInsts is the per-trace budget of the quick suite's subset-
// selection pass: enough retirement for stable loop signatures, small
// enough that selection stays a fraction of one benchmark repetition.
const selectInsts = 20_000

// QuickSuite returns the reduced suite benchd -quick runs: a short
// reuse-attribution pass over the suite profiles picks the greedy
// representative subset (workloads covering reuse.DefaultCoverage of
// the suite's reuse mass at the least simulated cost), and only those
// workloads keep their sim_wall_ms benchmarks. The non-per-profile
// specs (engine, optimizer, replayd serving) always run. Metric names
// are unchanged from the full suite, so quick and full reports compare
// metric-for-metric on the shared subset.
func QuickSuite(ctx context.Context) ([]Spec, []reuse.SubsetPick, error) {
	profiles := make([]workload.Profile, len(suiteProfiles))
	for i, name := range suiteProfiles {
		profiles[i] = mustProfile(name)
	}
	rep, err := sim.Reuse(ctx, profiles, sim.Options{MaxInsts: selectInsts})
	if err != nil {
		return nil, nil, fmt.Errorf("subset selection: %w", err)
	}
	selected := make(map[string]bool, len(rep.Subset))
	for _, p := range rep.Subset {
		selected[p.Name] = true
	}
	var keep []string
	for _, name := range suiteProfiles {
		if selected[name] {
			keep = append(keep, name)
		}
	}
	if len(keep) == 0 {
		// Degenerate selection (e.g. zero reuse mass everywhere): fall
		// back to the full profile set rather than an empty suite.
		keep = suiteProfiles
	}
	return suiteFor(keep), rep.Subset, nil
}

func simWallSpec(profile string) Spec {
	return Spec{
		Name:   "sim_wall_ms/" + profile,
		Unit:   "ms",
		Better: Lower,
		Run: func(ctx context.Context, s Settings) (float64, error) {
			p, err := workload.ByName(profile)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = sim.RunWorkload(ctx, p, pipeline.ModeRePLayOpt,
				sim.Options{MaxInsts: s.Insts, DisableCache: true})
			if err != nil {
				return 0, err
			}
			return float64(time.Since(start)) / float64(time.Millisecond), nil
		},
	}
}

func engineSpec() Spec {
	var slots []pipeline.Slot
	return Spec{
		Name:   "engine_uops_per_sec",
		Unit:   "uops/s",
		Better: Higher,
		Setup: func(ctx context.Context, s Settings) (func(), error) {
			p, err := workload.ByName("gzip")
			if err != nil {
				return nil, err
			}
			ss, err := sim.CaptureSlotStream(p, 0, s.Insts)
			if err != nil {
				return nil, err
			}
			slots, err = sim.SlotsFromRecorded(ss)
			return func() { slots = nil }, err
		},
		Run: func(ctx context.Context, s Settings) (float64, error) {
			mode := pipeline.ModeRePLayOpt
			eng := pipeline.New(pipeline.DefaultConfig(mode), mode, sim.NewSlotStream(slots))
			start := time.Now()
			eng.Run(uint64(s.Insts))
			elapsed := time.Since(start).Seconds()
			st := eng.Stats()
			if st.UOpsRetired == 0 {
				return 0, fmt.Errorf("engine retired no uops")
			}
			return float64(st.UOpsRetired) / elapsed, nil
		},
	}
}

func optSpec() Spec {
	const maxFrames = 256
	var frames []*frame.Frame // constructed once; repetitions remap fresh
	return Spec{
		Name:   "opt_uops_per_sec",
		Unit:   "uops/s",
		Better: Higher,
		Setup: func(ctx context.Context, s Settings) (func(), error) {
			frames = sim.CollectFrames(mustProfile("gzip"), s.Insts, maxFrames)
			if len(frames) == 0 {
				return nil, fmt.Errorf("no frames constructed from gzip at %d insts", s.Insts)
			}
			return func() { frames = nil }, nil
		},
		Run: func(ctx context.Context, s Settings) (float64, error) {
			// Remap outside the timed region: Optimize mutates the frame in
			// place, so each repetition needs fresh renamed copies.
			fresh := make([]*opt.OptFrame, len(frames))
			for i, f := range frames {
				fresh[i] = opt.Remap(f, opt.ScopeFrame)
			}
			rec := telemetry.NewAttribution()
			uops := 0
			start := time.Now()
			for _, of := range fresh {
				st := opt.OptimizeTraced(of, opt.AllOptions(), rec)
				uops += st.UOpsIn
			}
			elapsed := time.Since(start).Seconds()
			if uops == 0 {
				return 0, fmt.Errorf("optimizer saw no uops")
			}
			return float64(uops) / elapsed, nil
		},
	}
}

func replaydSpec() Spec {
	var (
		core *server.Server
		ts   *httptest.Server
	)
	body := func(s Settings) []byte {
		return []byte(fmt.Sprintf(
			`{"experiment":"cell","workloads":["gzip"],"insts":%d}`, s.Insts))
	}
	post := func(ctx context.Context, s Settings) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/run", bytes.NewReader(body(s)))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/run: %s", resp.Status)
		}
		return nil
	}
	return Spec{
		Name:   "replayd_request_ms",
		Unit:   "ms",
		Better: Lower,
		Setup: func(ctx context.Context, s Settings) (func(), error) {
			logger := s.Logger
			if logger == nil {
				logger = slog.New(slog.DiscardHandler)
			}
			core = server.New(server.Config{
				Workers: 2,
				Logger:  logger,
			})
			ts = httptest.NewServer(core.Handler())
			// One untimed request warms the capture cache and run memo, so
			// the measured repetitions isolate serving overhead instead of
			// re-measuring the simulator (sim_wall_ms already covers that).
			if err := post(ctx, s); err != nil {
				ts.Close()
				_ = core.Shutdown(context.Background())
				return nil, err
			}
			return func() {
				ts.Close()
				sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = core.Shutdown(sctx)
			}, nil
		},
		Run: func(ctx context.Context, s Settings) (float64, error) {
			start := time.Now()
			if err := post(ctx, s); err != nil {
				return 0, err
			}
			return float64(time.Since(start)) / float64(time.Millisecond), nil
		},
	}
}

func mustProfile(name string) workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic("benchmark: unknown suite profile " + name)
	}
	return p
}
