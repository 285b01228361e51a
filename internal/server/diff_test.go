package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/stats"
)

// postDiff submits one POST /v1/diff body and decodes the job envelope.
func postDiff(t *testing.T, url string, body any) (jobEnvelope, int) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/diff", "application/json", bytes.NewReader(b))
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

// decodeDiff unmarshals a finished envelope's diff report.
func decodeDiff(t *testing.T, env jobEnvelope) *sim.DiffReport {
	t.Helper()
	var res api.RunResponse
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Diff == nil {
		t.Fatalf("no diff report in result: %s", env.Result)
	}
	return res.Diff
}

// TestDiffEndToEnd runs an ablation comparison (gzip, all passes vs
// optimizer disabled) through POST /v1/diff and checks the report is
// conservation-exact at the wire, that /debug/diff serves the same
// bytes, and that the folded replayd_diff_* families count it.
func TestDiffEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cell := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 20_000}
	vari := cell
	vari.Config = &api.ConfigOverrides{
		DisableOpts: []string{"nop", "cp", "ra", "cse", "sf", "asst", "spec"}}
	env, status := postDiff(t, ts.URL, diffPostRequest{Base: &cell, Variant: &vari, Repeats: 2})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, env.Error)
	}
	rep := decodeDiff(t, env)
	if len(rep.Rows) != 1 || rep.Rows[0].Workload != "gzip" {
		t.Fatalf("wrong report shape: %+v", rep)
	}
	if rep.Repeats != 2 {
		t.Errorf("repeats = %d, want 2", rep.Repeats)
	}
	r := &rep.Rows[0].Report
	if r.ResidualUOpsRemoved != 0 || r.ResidualCycles != 0 {
		t.Errorf("unattributed delta: uops=%d cycles=%d", r.ResidualUOpsRemoved, r.ResidualCycles)
	}
	if len(r.Loops) == 0 {
		t.Error("no per-loop delta rows")
	}
	if len(r.Metrics) == 0 {
		t.Fatal("no gated metrics")
	}
	for _, m := range r.Metrics {
		if m.Verdict == "" {
			t.Errorf("metric %s has no verdict", m.Name)
		}
	}

	// /debug/diff serves the same report the job result carries.
	resp, err := http.Get(ts.URL + "/debug/diff?job=" + env.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/diff: status %d", resp.StatusCode)
	}
	var dbg sim.DiffReport
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	direct, _ := json.Marshal(rep)
	served, _ := json.Marshal(&dbg)
	if !bytes.Equal(direct, served) {
		t.Errorf("/debug/diff diverged from the job result:\n got %s\nwant %s", served, direct)
	}

	// The folded metric families count the finished comparison.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	fams, err := stats.ParseProm(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]stats.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if jf := byName["replayd_diff_jobs_total"]; jf.Value != 1 {
		t.Errorf("replayd_diff_jobs_total = %v, want 1", jf.Value)
	}
	if lf := byName["replayd_diff_loops_compared_total"]; int(lf.Value) != len(r.Loops) {
		t.Errorf("replayd_diff_loops_compared_total = %v, want %d", lf.Value, len(r.Loops))
	}
	wantReg := float64(rep.SignificantRegressions())
	wantImp := float64(rep.SignificantImprovements())
	if rf := byName["replayd_diff_significant_regressions_total"]; rf.Value != wantReg {
		t.Errorf("replayd_diff_significant_regressions_total = %v, want %v", rf.Value, wantReg)
	}
	if impf := byName["replayd_diff_significant_improvements_total"]; impf.Value != wantImp {
		t.Errorf("replayd_diff_significant_improvements_total = %v, want %v", impf.Value, wantImp)
	}
}

// TestDiffJobIDForm records two cell jobs, then compares them by ID.
// The ID form must canonicalize to the same diff job as the equivalent
// spec form (so either spelling coalesces onto one comparison).
func TestDiffJobIDForm(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cell := api.RunRequest{Experiment: "cell", Workloads: []string{"access"}, Insts: 20_000}
	vari := cell
	vari.Config = &api.ConfigOverrides{DisableOpts: []string{"cse"}}
	benv, status := postRun(t, ts.URL+"/v1/run", cell)
	if status != http.StatusOK {
		t.Fatalf("base run: status %d (%s)", status, benv.Error)
	}
	venv, status := postRun(t, ts.URL+"/v1/run", vari)
	if status != http.StatusOK {
		t.Fatalf("variant run: status %d (%s)", status, venv.Error)
	}

	env, status := postDiff(t, ts.URL, diffPostRequest{BaseJob: benv.ID, VarJob: venv.ID})
	if status != http.StatusOK {
		t.Fatalf("diff by job ID: status %d (%s)", status, env.Error)
	}
	rep := decodeDiff(t, env)
	r := &rep.Rows[0].Report
	if r.ResidualUOpsRemoved != 0 || r.ResidualCycles != 0 {
		t.Errorf("unattributed delta: uops=%d cycles=%d", r.ResidualUOpsRemoved, r.ResidualCycles)
	}

	// The spec form of the same comparison canonicalizes to the same job
	// key, so concurrent submissions of either spelling would coalesce.
	env2, status := postDiff(t, ts.URL, diffPostRequest{Base: &cell, Variant: &vari})
	if status != http.StatusOK {
		t.Fatalf("diff by spec: status %d (%s)", status, env2.Error)
	}
	j1, ok1 := s.lookup(env.ID)
	j2, ok2 := s.lookup(env2.ID)
	if !ok1 || !ok2 {
		t.Fatal("diff jobs not found")
	}
	if j1.key != j2.key {
		t.Errorf("ID-form and spec-form diffs keyed differently:\n %s\n %s", j1.key, j2.key)
	}
}

// TestDiffValidation pins the /v1/diff error surface.
func TestDiffValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cell := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 20_000}
	other := api.RunRequest{Experiment: "cell", Workloads: []string{"access"}, Insts: 20_000}
	shortBudget := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: 10_000}
	sweep := api.RunRequest{Experiment: "fig6"}

	cases := []struct {
		name string
		body diffPostRequest
		want int
	}{
		{"no sides", diffPostRequest{}, http.StatusBadRequest},
		{"one side", diffPostRequest{Base: &cell}, http.StatusBadRequest},
		{"mixed forms", diffPostRequest{Base: &cell, Variant: &cell, BaseJob: "job-1"}, http.StatusBadRequest},
		{"unknown job", diffPostRequest{BaseJob: "job-999999", VarJob: "job-999998"}, http.StatusNotFound},
		{"non-cell side", diffPostRequest{Base: &sweep, Variant: &cell}, http.StatusBadRequest},
		{"different workloads", diffPostRequest{Base: &cell, Variant: &other}, http.StatusBadRequest},
		{"different budgets", diffPostRequest{Base: &cell, Variant: &shortBudget}, http.StatusBadRequest},
		{"repeats over cap", diffPostRequest{Base: &cell, Variant: &cell, Repeats: 1_000_000}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		env, status := postDiff(t, ts.URL, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, env.Error)
		}
	}

	// Unknown fields in the body are rejected, not ignored.
	resp, err := http.Post(ts.URL+"/v1/diff", "application/json",
		strings.NewReader(`{"bsae":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestDiffXTraceVsSyntheticClone uploads a captured gzip trace and
// compares the upload against its own workload source — the paper's
// "upload vs synthetic clone" check. Replaying the exported trace is
// bit-exact with the direct run, so every per-loop delta and both
// residuals must be zero and every verdict noise.
func TestDiffXTraceVsSyntheticClone(t *testing.T) {
	const budget = 10_000
	s := New(Config{Workers: 2, SpoolDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := exportGzip(t, budget)
	out, status := upload(t, ts.URL, body)
	if status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, out)
	}
	id := out["id"].(string)

	base := api.RunRequest{Experiment: "cell", Workloads: []string{"gzip"}, Insts: budget}
	vari := api.RunRequest{Experiment: "cell", XTrace: id, Insts: budget}
	env, status := postDiff(t, ts.URL, diffPostRequest{Base: &base, Variant: &vari})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, env.Error)
	}
	rep := decodeDiff(t, env)
	if len(rep.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rep.Rows))
	}
	r := &rep.Rows[0].Report
	if r.ResidualUOpsRemoved != 0 || r.ResidualCycles != 0 {
		t.Errorf("unattributed delta: uops=%d cycles=%d", r.ResidualUOpsRemoved, r.ResidualCycles)
	}
	for _, ld := range r.Loops {
		if ld.DCycles != 0 || ld.DOptRemoved != 0 || ld.DUOpsRetired != 0 {
			t.Errorf("loop %#x: non-zero delta against the clone: %+v", ld.Header, ld)
		}
	}
	for _, m := range r.Metrics {
		if m.Delta != 0 {
			t.Errorf("metric %s: delta %v against a bit-exact clone", m.Name, m.Delta)
		}
	}
	if r.SignificantRegressions != 0 || r.SignificantImprovements != 0 {
		t.Errorf("clone diff claims significance: +%d -%d",
			r.SignificantImprovements, r.SignificantRegressions)
	}
}
