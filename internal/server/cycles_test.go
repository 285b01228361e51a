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
	"repro/internal/cycleprof"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestCyclesEndToEnd runs a cycles job through the full HTTP surface
// and checks the views agree: the job result, the /debug/profile JSON
// and pprof exports (the pprof total must equal the measured cycles —
// conservation at the wire), and the folded metric families.
func TestCyclesEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	env, status := postRun(t, ts.URL+"/v1/run", api.RunRequest{
		Experiment: "cycles", Workloads: []string{"gzip"}, Insts: 20_000})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, env.Error)
	}
	var res api.RunResponse
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cycles == nil || len(res.Cycles.Rows) != 1 {
		t.Fatalf("cycles result missing or wrong shape: %+v", res.Cycles)
	}
	row := res.Cycles.Rows[0]
	if row.Workload != "gzip" || row.Report.Cycles == 0 || len(row.Report.PCs) == 0 {
		t.Fatalf("implausible cycles row: workload=%s cycles=%d pcs=%d",
			row.Workload, row.Report.Cycles, len(row.Report.PCs))
	}
	if len(row.Report.Loops) == 0 {
		t.Fatal("no loop-joined hotspots")
	}

	// /debug/profile (JSON) serves the same report the job result carries.
	resp, err := http.Get(ts.URL + "/debug/profile?job=" + env.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/profile: status %d", resp.StatusCode)
	}
	var dbg sim.CycleReport
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	direct, _ := json.Marshal(res.Cycles)
	served, _ := json.Marshal(&dbg)
	if !bytes.Equal(direct, served) {
		t.Errorf("/debug/profile diverged from the job result:\n got %s\nwant %s", served, direct)
	}

	// format=pprof decodes, and its total sample value equals the
	// measured-window cycle count.
	presp, err := http.Get(ts.URL + "/debug/profile?job=" + env.ID + "&format=pprof")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("GET format=pprof: status %d", presp.StatusCode)
	}
	data, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, total, err := cycleprof.ProfileTotal(data)
	if err != nil {
		t.Fatalf("pprof did not decode: %v", err)
	}
	if samples == 0 || total != row.Report.Cycles {
		t.Fatalf("pprof total = %d over %d samples, want %d (measured cycles)",
			total, samples, row.Report.Cycles)
	}

	// format=text returns collapsed flame stacks.
	tresp, err := http.Get(ts.URL + "/debug/profile?job=" + env.ID + "&format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	flame, err := io.ReadAll(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(flame), "gzip;") {
		t.Errorf("flame text does not open with the workload root: %q", string(flame[:min(len(flame), 60)]))
	}

	// /metrics exposes the per-bin fold and the satellite pipeline
	// family; both must conserve (bins sum to the cycle totals).
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
	cf, ok := byName["replayd_fetch_cycles_total"]
	if !ok || len(cf.Labeled) != int(pipeline.NumBins) {
		t.Fatalf("replayd_fetch_cycles_total missing or wrong arity: %+v", cf)
	}
	if uint64(cf.Value) != row.Report.Cycles {
		t.Errorf("folded fetch cycles %v != measured %d", cf.Value, row.Report.Cycles)
	}
	if jf := byName["replayd_cycleprof_jobs_total"]; jf.Value != 1 {
		t.Errorf("replayd_cycleprof_jobs_total = %v, want 1", jf.Value)
	}
	pf, ok := byName["replayd_pipeline_fetch_cycles_total"]
	if !ok || len(pf.Labeled) != int(pipeline.NumBins) {
		t.Fatalf("replayd_pipeline_fetch_cycles_total missing or wrong arity: %+v", pf)
	}
	pc := byName["replayd_pipeline_cycles_total"]
	if pf.Value != pc.Value {
		t.Errorf("pipeline fetch-cycle bins sum to %v, cycles total %v", pf.Value, pc.Value)
	}
}

// TestCycleMetricsFold checks the cycles rows of the report fold
// directly: two folded reports sum per bin and the loop rollups
// accumulate.
func TestCycleMetricsFold(t *testing.T) {
	m := newReportMetrics()
	var rep sim.CycleReport
	var r cycleprof.Report
	r.Cycles = 40
	r.Bins[pipeline.BinMispred] = 30
	r.Bins[pipeline.BinFrame] = 10
	r.Loops = []cycleprof.LoopCycles{{Header: 0x10, Cycles: 25}}
	rep.Rows = []sim.CycleRow{{Workload: "w", Report: r}}
	m.fold(&api.RunResponse{Cycles: &rep}, "")
	m.fold(&api.RunResponse{Cycles: &rep}, "")

	var buf bytes.Buffer
	p := stats.NewProm(&buf)
	m.render(p)
	out := buf.String()
	for _, want := range []string{
		"replayd_cycleprof_jobs_total 2",
		`replayd_fetch_cycles_total{bin="mispred"} 60`,
		`replayd_fetch_cycles_total{bin="frame"} 20`,
		`replayd_fetch_cycles_total{bin="assert"} 0`,
		"replayd_cycleprof_loops_total 2",
		"replayd_cycleprof_loop_cycles_total 50",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}
