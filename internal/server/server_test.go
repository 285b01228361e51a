package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/workload"
)

// postRun POSTs a request to path and decodes the job envelope, keeping
// the result's raw bytes for byte-identity checks.
type jobEnvelope struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	TraceID   string          `json:"trace_id"`
	Coalesced bool            `json:"coalesced"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

func postRun(t testing.TB, url string, req api.RunRequest) (jobEnvelope, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env jobEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return env, resp.StatusCode
}

// TestRunEndToEndMatchesDirectSim: a synchronous run through the full
// HTTP surface returns byte-identical JSON to calling the sim driver
// directly and marshaling the same wire type.
func TestRunEndToEndMatchesDirectSim(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	profiles := []workload.Profile{p}
	opts := sim.Options{MaxInsts: 2_000}

	for _, tc := range []struct {
		req  api.RunRequest
		want func() (api.RunResponse, error)
	}{
		{
			req: api.RunRequest{Experiment: "fig6", Workloads: []string{"gzip"}, Insts: 2_000},
			want: func() (api.RunResponse, error) {
				rows, err := sim.Fig6(context.Background(), profiles, opts)
				return api.RunResponse{Experiment: api.ExpFig6, Fig6: rows}, err
			},
		},
		{
			req: api.RunRequest{Experiment: "Table3", Workloads: []string{"GZIP"}, Insts: 2_000},
			want: func() (api.RunResponse, error) {
				rows, err := sim.Table3(context.Background(), profiles, opts)
				return api.RunResponse{Experiment: api.ExpTable3, Table3: rows}, err
			},
		},
	} {
		env, status := postRun(t, ts.URL+"/v1/run", tc.req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.req.Experiment, status, env.Error)
		}
		if env.State != api.StateDone {
			t.Fatalf("%s: state %q, want done", tc.req.Experiment, env.State)
		}
		wantRes, err := tc.want()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(wantRes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env.Result, want) {
			t.Errorf("%s: served result differs from direct sim call:\n got %s\nwant %s",
				tc.req.Experiment, env.Result, want)
		}
	}
}

// gatedRunner blocks every execution until release is closed, counting
// invocations, so tests control exactly when jobs finish.
type gatedRunner struct {
	calls   atomic.Int64
	release chan struct{}
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{release: make(chan struct{})}
}

func (g *gatedRunner) run(ctx context.Context, req api.RunRequest, _ []sim.Collector, progress func(api.Event)) (*api.RunResponse, error) {
	g.calls.Add(1)
	select {
	case <-g.release:
		return &api.RunResponse{Experiment: req.Experiment}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescing: K concurrent identical synchronous requests execute
// the underlying sweep exactly once, and every client gets the same job.
func TestCoalescing(t *testing.T) {
	const k = 6
	g := newGatedRunner()
	s := New(Config{Workers: 2, Runner: g.run})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := api.RunRequest{Experiment: "fig6", Workloads: []string{"gzip"}, Insts: 2_000}
	envs := make([]jobEnvelope, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env, status := postRun(t, ts.URL+"/v1/run", req)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d (%s)", i, status, env.Error)
			}
			envs[i] = env
		}(i)
	}
	// Hold the gate until every request has either created the job or
	// attached to it, then let the single execution finish.
	waitFor(t, "all submissions", func() bool { return s.met.requests.Load() == k })
	close(g.release)
	wg.Wait()

	if n := g.calls.Load(); n != 1 {
		t.Errorf("runner executed %d times for %d identical requests, want 1", n, k)
	}
	ids := map[string]bool{}
	fresh := 0
	for i, env := range envs {
		ids[env.ID] = true
		if env.State != api.StateDone {
			t.Errorf("request %d: state %q", i, env.State)
		}
		if !env.Coalesced {
			fresh++
		}
	}
	if len(ids) != 1 {
		t.Errorf("got %d distinct jobs, want 1", len(ids))
	}
	if fresh != 1 {
		t.Errorf("%d submissions created a job, want exactly 1", fresh)
	}
	if n := s.met.coalesced.Load(); n != k-1 {
		t.Errorf("coalesced counter %d, want %d", n, k-1)
	}

	// The /metrics surface must report the same thing.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	want := fmt.Sprintf("replayd_coalesced_hits_total %d", k-1)
	if !strings.Contains(string(b), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestDistinctRequestsDoNotCoalesce: requests differing in canonical
// form each get their own job.
func TestDistinctRequestsDoNotCoalesce(t *testing.T) {
	g := newGatedRunner()
	close(g.release) // run through immediately
	s := New(Config{Workers: 2, Runner: g.run})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, _ := postRun(t, ts.URL+"/v1/run", api.RunRequest{Experiment: "fig6", Insts: 1_000})
	b, _ := postRun(t, ts.URL+"/v1/run", api.RunRequest{Experiment: "fig6", Insts: 2_000})
	if a.ID == b.ID {
		t.Errorf("different budgets coalesced into one job %s", a.ID)
	}
	// Case and ordering differences canonicalize away: same job key, but
	// the first finished already, so this becomes a fresh job too — the
	// memo layer, not the coalescer, handles completed repeats.
	if g.calls.Load() != 2 {
		t.Errorf("runner executed %d times, want 2", g.calls.Load())
	}
}

// TestQueueFullRejects: submissions beyond Workers+QueueDepth in-flight
// jobs are rejected with 503 and counted.
func TestQueueFullRejects(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: g.run})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A occupies the single worker...
	envA, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "fig6", Insts: 1_000})
	if status != http.StatusAccepted {
		t.Fatalf("job A: status %d", status)
	}
	waitFor(t, "worker pickup", func() bool { return g.calls.Load() == 1 })
	// ...B fills the queue...
	if _, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "fig6", Insts: 2_000}); status != http.StatusAccepted {
		t.Fatalf("job B: status %d", status)
	}
	// ...C must bounce.
	envC, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "fig6", Insts: 3_000})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("job C: status %d, want 503 (%+v)", status, envC)
	}
	if n := s.met.rejected.Load(); n != 1 {
		t.Errorf("rejected counter %d, want 1", n)
	}
	// A resubmission of A still coalesces — rejection only applies to new
	// work.
	envA2, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "fig6", Insts: 1_000})
	if status != http.StatusAccepted || !envA2.Coalesced || envA2.ID != envA.ID {
		t.Errorf("duplicate of queued job: status %d coalesced=%v id=%s, want 202 on job %s",
			status, envA2.Coalesced, envA2.ID, envA.ID)
	}
	close(g.release)
}

// TestLastWaiterCancels: when the only synchronous client lets go, the
// job's context cancels and it settles as canceled; detached (async)
// jobs survive the same situation.
func TestLastWaiterCancels(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 2, Runner: g.run})
	defer s.Shutdown(context.Background())

	j, coalesced, err := s.submit(context.Background(), api.RunRequest{Experiment: "fig6"}, false)
	if err != nil || coalesced {
		t.Fatalf("submit: coalesced=%v err=%v", coalesced, err)
	}
	waitFor(t, "worker pickup", func() bool { return g.calls.Load() == 1 })
	s.releaseWaiter(j)
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
		t.Fatal("job did not settle after its last waiter left")
	}
	if v := j.view(); v.State != api.StateCanceled {
		t.Errorf("state %q, want canceled", v.State)
	}
	if n := s.met.jobsCanceled.Load(); n != 1 {
		t.Errorf("canceled counter %d, want 1", n)
	}

	// An async job with zero waiters keeps running.
	jd, _, err := s.submit(context.Background(), api.RunRequest{Experiment: "table3"}, true)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "detached pickup", func() bool { return g.calls.Load() == 2 })
	close(g.release)
	select {
	case <-jd.done:
	case <-time.After(5 * time.Second):
		t.Fatal("detached job never finished")
	}
	if v := jd.view(); v.State != api.StateDone {
		t.Errorf("detached job state %q, want done", v.State)
	}
}

// TestEventsStream: the NDJSON stream replays queued/running/progress/
// done in order with increasing sequence numbers and then closes.
func TestEventsStream(t *testing.T) {
	runner := func(ctx context.Context, req api.RunRequest, _ []sim.Collector, progress func(api.Event)) (*api.RunResponse, error) {
		progress(api.Event{Msg: "step 1", Done: 1, Total: 2})
		progress(api.Event{Msg: "step 2", Done: 2, Total: 2})
		return &api.RunResponse{Experiment: req.Experiment}, nil
	}
	s := New(Config{Workers: 1, Runner: runner})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	env, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "fig6"})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var got []api.Event
	for {
		var e api.Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	var trail []string
	for i, e := range got {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.Msg != "" {
			trail = append(trail, e.Msg)
		} else {
			trail = append(trail, e.State)
		}
	}
	want := []string{api.StateQueued, api.StateRunning, "step 1", "step 2", api.StateDone}
	if strings.Join(trail, ",") != strings.Join(want, ",") {
		t.Errorf("event trail %v, want %v", trail, want)
	}

	// The finished job stays queryable with its result.
	fin, status := postGet(t, ts.URL+"/v1/jobs/"+env.ID)
	if status != http.StatusOK || fin.State != api.StateDone || len(fin.Result) == 0 {
		t.Errorf("finished job: status %d state %q result %q", status, fin.State, fin.Result)
	}
}

func postGet(t *testing.T, url string) (jobEnvelope, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env jobEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env, resp.StatusCode
}

// TestValidationErrors: malformed requests fail fast with 400, before
// touching the queue, and the daemon keeps serving afterwards.
func TestValidationErrors(t *testing.T) {
	s := New(Config{Workers: 1, MaxInsts: 10_000})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		req  api.RunRequest
	}{
		{"unknown experiment", api.RunRequest{Experiment: "fig99"}},
		{"unknown workload", api.RunRequest{Experiment: "fig6", Workloads: []string{"nosuch"}}},
		{"unknown mode", api.RunRequest{Experiment: "cell", Mode: "XX"}},
		{"unknown opt", api.RunRequest{Experiment: "fig6", Config: &api.ConfigOverrides{DisableOpts: []string{"zap"}}}},
		{"over insts cap", api.RunRequest{Experiment: "fig6", Insts: 20_000}},
		{"default budget over cap", api.RunRequest{Experiment: "fig6"}},
		// The engine would size its retire ring from this width.
		{"huge width", api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 1000,
			Config: &api.ConfigOverrides{Width: 1 << 62}}},
	} {
		env, status := postRun(t, ts.URL+"/v1/run", tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
		if env.Error == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
	if n := s.met.requests.Load(); n != 0 {
		t.Errorf("invalid submissions counted as requests: %d", n)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz after rejections: status %d, want 200", hz.StatusCode)
	}
	env, status := postRun(t, ts.URL+"/v1/run", api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 1000})
	if status != http.StatusOK || env.State != api.StateDone {
		t.Errorf("valid cell after rejections: status %d, state %q (%s)", status, env.State, env.Error)
	}
}

// TestShutdownDrains: draining rejects new work, lets running jobs
// finish, and flips /healthz to 503.
func TestShutdownDrains(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, Runner: g.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	env, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "fig6"})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	waitFor(t, "worker pickup", func() bool { return g.calls.Load() == 1 })

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()
	waitFor(t, "draining flag", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	if _, status := postRun(t, ts.URL+"/v1/jobs", api.RunRequest{Experiment: "table3"}); status != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: status %d, want 503", status)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
		}
	}

	close(g.release)
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Errorf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never drained")
	}
	fin, _ := postGet(t, ts.URL+"/v1/jobs/"+env.ID)
	if fin.State != api.StateDone {
		t.Errorf("in-flight job state after drain: %q, want done", fin.State)
	}
}

// TestCanonicalKeyEquivalence: spelling variants of one request share a
// coalescing key; material differences split it.
func TestCanonicalKeyEquivalence(t *testing.T) {
	base := api.RunRequest{Experiment: "fig6", Workloads: []string{"gzip", "bzip2"}, Insts: 1_000}
	same := []api.RunRequest{
		{Experiment: " FIG6 ", Workloads: []string{"GZIP", " bzip2"}, Insts: 1_000},
		{Experiment: "fig6", Workloads: []string{"gzip", "bzip2"}, Insts: 1_000, Mode: "RPO"},
		{Experiment: "fig6", Workloads: []string{"gzip", "bzip2"}, Insts: 1_000, Config: &api.ConfigOverrides{}},
	}
	for i, r := range same {
		if r.Key() != base.Key() {
			t.Errorf("variant %d has key %s, want %s", i, r.Key(), base.Key())
		}
	}
	diff := []api.RunRequest{
		{Experiment: "fig6", Workloads: []string{"gzip"}, Insts: 1_000},
		{Experiment: "fig6", Workloads: []string{"gzip", "bzip2"}, Insts: 2_000},
		{Experiment: "fig6", Workloads: []string{"gzip", "bzip2"}, Insts: 1_000,
			Config: &api.ConfigOverrides{DisableOpts: []string{"cse"}}},
	}
	for i, r := range diff {
		if r.Key() == base.Key() {
			t.Errorf("materially different request %d collides with base key", i)
		}
	}
	// Disable lists canonicalize order-insensitively.
	a := api.RunRequest{Experiment: "fig6", Config: &api.ConfigOverrides{DisableOpts: []string{"sf", "cse", "cse"}}}
	b := api.RunRequest{Experiment: "fig6", Config: &api.ConfigOverrides{DisableOpts: []string{"cse", "sf"}}}
	if a.Key() != b.Key() {
		t.Error("disable_opts ordering split the coalescing key")
	}
}
