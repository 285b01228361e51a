package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/logtest"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// exportGzip captures and exports a small gzip trace in the external
// binary encoding.
func exportGzip(t testing.TB, budget int) ([]byte, *xtrace.Trace) {
	t.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sim.Capture(prog, budget+sim.ReplaySlack)
	if err != nil {
		t.Fatal(err)
	}
	xt := xtrace.FromRecording(prog.Name, prog.Base, prog.Code, rec, budget)
	var buf bytes.Buffer
	if err := xtrace.WriteBinary(&buf, xt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), xt
}

func upload(t testing.TB, url string, body []byte) (map[string]any, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding upload response: %v", err)
	}
	return out, resp.StatusCode
}

// TestXTraceUploadRunMatchesDirect: export -> upload -> run?trace=<id>
// must produce bit-identical stats to the direct interpreter-backed run.
func TestXTraceUploadRunMatchesDirect(t *testing.T) {
	const budget = 10_000
	s := New(Config{Workers: 2, SpoolDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, xt := exportGzip(t, budget)
	out, status := upload(t, ts.URL, body)
	if status != http.StatusCreated {
		t.Fatalf("upload status %d: %v", status, out)
	}
	id, _ := out["id"].(string)
	if id != xtrace.TraceID(xt) {
		t.Fatalf("upload id %q != content id %q", id, xtrace.TraceID(xt))
	}
	if int(out["records"].(float64)) != len(xt.Records) {
		t.Fatalf("upload records = %v, want %d", out["records"], len(xt.Records))
	}

	// Re-upload deduplicates.
	out2, status2 := upload(t, ts.URL, body)
	if status2 != http.StatusCreated || out2["duplicate"] != true {
		t.Fatalf("re-upload: status %d, %v", status2, out2)
	}

	// Run via the query-parameter form with no body.
	resp, err := http.Post(ts.URL+"/v1/run?trace="+id, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var env jobEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || env.State != api.StateDone {
		t.Fatalf("run status %d state %q error %q", resp.StatusCode, env.State, env.Error)
	}
	var res api.RunResponse
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	cell := res.Cells[0]
	// The exported header carries the capture's per-trace name ("gzip.0").
	if !strings.HasPrefix(cell.Workload, "gzip") || cell.Mode != "RPO" || cell.Class != sim.ExternalClass {
		t.Errorf("cell identity = %q/%q/%q", cell.Workload, cell.Class, cell.Mode)
	}

	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
		sim.Options{MaxInsts: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cell.Stats, direct.Stats) {
		t.Errorf("uploaded-trace stats differ from direct run:\n served: %+v\n direct: %+v",
			cell.Stats, direct.Stats)
	}

	// The explicit JSON-body form coalesces/keys identically and works too.
	env2, status := postRun(t, ts.URL+"/v1/run", api.RunRequest{XTrace: id})
	if status != http.StatusOK || env2.State != api.StateDone {
		t.Fatalf("xtrace body run: status %d state %q", status, env2.State)
	}
	if !bytes.Equal(env2.Result, env.Result) {
		t.Errorf("body-form result differs from query-form result")
	}
}

// Oversize uploads and spool-budget misses are 413 with a structured
// body and a Warn log line — never a 500.
func TestXTraceUploadOversize413(t *testing.T) {
	h := logtest.NewHandler()
	logger := slog.New(h)
	body, _ := exportGzip(t, 2_000)

	// Body cap: one byte under the upload.
	s := New(Config{Workers: 1, SpoolDir: t.TempDir(),
		MaxUploadBytes: int64(len(body) - 1), Logger: logger})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out, status := upload(t, ts.URL, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%v)", status, out)
	}
	if out["kind"] != "oversize" {
		t.Errorf("kind = %v, want oversize", out["kind"])
	}
	if out["limit_bytes"] == nil || out["error"] == nil {
		t.Errorf("unstructured 413 body: %v", out)
	}

	// Spool budget: body fits the request cap but not the spool.
	s2 := New(Config{Workers: 1, SpoolDir: t.TempDir(),
		SpoolBytes: 128, Logger: logger})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	builds := sim.SnapshotMetrics().CaptureBuilds
	out2, status2 := upload(t, ts2.URL, body)
	if status2 != http.StatusRequestEntityTooLarge {
		t.Fatalf("spool-budget status = %d, want 413 (%v)", status2, out2)
	}
	if out2["kind"] != "spool_budget" {
		t.Errorf("kind = %v, want spool_budget", out2["kind"])
	}
	// Refused before adaptation: nothing is charged to the capture cache.
	if n := sim.SnapshotMetrics().CaptureBuilds - builds; n != 0 {
		t.Errorf("spool-budget upload adapted %d times, want 0", n)
	}

	found := false
	for _, rec := range h.Records() {
		if rec.Level == slog.LevelWarn && rec.Message == "trace upload rejected" {
			found = true
		}
	}
	if !found {
		t.Error("no Warn log line for the rejected upload")
	}
}

// Malformed uploads are 400 with kind=decode; unknown trace IDs on run
// submission are 404; a server without a spool answers 503.
func TestXTraceUploadErrors(t *testing.T) {
	s := New(Config{Workers: 1, SpoolDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out, status := upload(t, ts.URL, []byte("this is not a trace"))
	if status != http.StatusBadRequest || out["kind"] != "decode" {
		t.Fatalf("garbage upload: status %d, %v", status, out)
	}

	env, status := postRun(t, ts.URL+"/v1/run", api.RunRequest{XTrace: strings.Repeat("ab", 32)})
	if status != http.StatusNotFound {
		t.Fatalf("unknown trace run: status %d (%s)", status, env.Error)
	}

	noSpool := New(Config{Workers: 1})
	defer noSpool.Shutdown(context.Background())
	ts2 := httptest.NewServer(noSpool.Handler())
	defer ts2.Close()
	out2, status2 := upload(t, ts2.URL, []byte("{}"))
	if status2 != http.StatusServiceUnavailable || out2["kind"] != "disabled" {
		t.Fatalf("spoolless upload: status %d, %v", status2, out2)
	}
}

// The trace listing and info endpoints describe the spool, and the
// xtrace metric families appear on /metrics.
func TestXTraceListInfoAndMetrics(t *testing.T) {
	s := New(Config{Workers: 1, SpoolDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, xt := exportGzip(t, 2_000)
	out, status := upload(t, ts.URL, body)
	if status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, out)
	}
	id := out["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list map[string]any
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if list["enabled"] != true || int(list["entries"].(float64)) != 1 {
		t.Errorf("listing = %v", list)
	}

	resp, err = http.Get(ts.URL + "/v1/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info traceInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if !strings.HasPrefix(info.Name, "gzip") || info.Records != uint64(len(xt.Records)) || !info.HasCode {
		t.Errorf("info = %+v", info)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"replayd_xtrace_uploads_total 1",
		"replayd_xtrace_spool_entries 1",
		"replayd_xtrace_decode_errors_total 0",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// GET /v1/traces/{id} answers from the spooled header with the fields
// the upload response reported, for a binary and an NDJSON upload; a
// re-post of a spooled trace adapts nothing, and a trace that decodes
// but fails adaptation is rejected with 400 and never spooled.
func TestXTraceInfoMatchesUpload(t *testing.T) {
	s := New(Config{Workers: 1, SpoolDir: t.TempDir()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for budget, write := range map[int]func(io.Writer, *xtrace.Trace) error{
		2_000: xtrace.WriteBinary,
		3_000: xtrace.WriteNDJSON,
	} {
		_, xt := exportGzip(t, budget)
		var body bytes.Buffer
		if err := write(&body, xt); err != nil {
			t.Fatal(err)
		}
		out, status := upload(t, ts.URL, body.Bytes())
		if status != http.StatusCreated {
			t.Fatalf("upload: %d %v", status, out)
		}
		var up traceInfo
		raw, _ := json.Marshal(out)
		if err := json.Unmarshal(raw, &up); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/traces/" + up.ID)
		if err != nil {
			t.Fatal(err)
		}
		var info traceInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("info: %d %v", resp.StatusCode, err)
		}
		if info != up || up.Records != uint64(len(xt.Records)) || up.Bytes != int64(len(xtrace.CanonicalBytes(xt))) {
			t.Errorf("budget %d: info %+v, upload %+v", budget, info, up)
		}

		builds := sim.SnapshotMetrics().CaptureBuilds
		if out, _ := upload(t, ts.URL, body.Bytes()); out["duplicate"] != true {
			t.Errorf("re-post not a duplicate: %v", out)
		}
		if n := sim.SnapshotMetrics().CaptureBuilds - builds; n != 0 {
			t.Errorf("budget %d: re-post adapted the trace %d times, want 0", budget, n)
		}
	}

	_, bad := exportGzip(t, 1_000)
	bad.Records[0].EIP = bad.CodeBase - 16 // outside the code image
	out, status := upload(t, ts.URL, xtrace.CanonicalBytes(bad))
	if status != http.StatusBadRequest || out["kind"] != "decode" {
		t.Errorf("unadaptable upload: status %d, %v", status, out)
	}
	if entries, _, _, _ := s.spool.Stats(); entries != 2 {
		t.Errorf("spool holds %d traces, want 2", entries)
	}

	noSpool := New(Config{Workers: 1})
	defer noSpool.Shutdown(context.Background())
	tsNoSpool := httptest.NewServer(noSpool.Handler())
	defer tsNoSpool.Close()
	for url, want := range map[string]int{
		ts.URL + "/v1/traces/" + strings.Repeat("ab", 32):        http.StatusNotFound,
		tsNoSpool.URL + "/v1/traces/" + strings.Repeat("ab", 32): http.StatusServiceUnavailable,
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, want)
		}
	}
}

// An upload is adapted once per capture-cache residency: at upload,
// then never again while its entry stays, whatever the runs over it
// (a server with MaxInsts resolves the trace once more, at submit, for
// its budget check). Once the entry is evicted, the next run adapts the
// spooled trace again and replays it bit-identically to a direct run.
func TestXTraceAdaptedOnce(t *testing.T) {
	const budget = 10_000
	sim.ResetCaches()
	t.Cleanup(func() {
		sim.SetCaptureLimits(sim.DefaultCaptureEntries, sim.DefaultCaptureBytes)
		sim.ResetCaches()
	})
	dir := t.TempDir()
	s := New(Config{Workers: 1, SpoolDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cell := func(url string, req api.RunRequest) pipeline.Stats {
		t.Helper()
		env, status := postRun(t, url+"/v1/run", req)
		if status != http.StatusOK || env.State != api.StateDone {
			t.Fatalf("run %+v: status %d state %q error %q", req, status, env.State, env.Error)
		}
		var res api.RunResponse
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		return res.Cells[0].Stats
	}
	builds := func() uint64 { return sim.SnapshotMetrics().CaptureBuilds }

	start := builds()
	body, _ := exportGzip(t, budget)
	out, status := upload(t, ts.URL, body)
	if status != http.StatusCreated {
		t.Fatalf("upload status %d: %v", status, out)
	}
	id := out["id"].(string)
	cell(ts.URL, api.RunRequest{XTrace: id})
	cell(ts.URL, api.RunRequest{XTrace: id})
	capped := New(Config{Workers: 1, SpoolDir: dir, MaxInsts: 1_000_000})
	defer capped.Shutdown(context.Background())
	tsCapped := httptest.NewServer(capped.Handler())
	defer tsCapped.Close()
	cell(tsCapped.URL, api.RunRequest{XTrace: id})
	if n := builds() - start; n != 1 {
		t.Fatalf("one upload and three runs adapted %d times, want 1", n)
	}

	// A built-in run takes the only entry, evicting the upload's.
	sim.SetCaptureLimits(1, 0)
	cell(ts.URL, api.RunRequest{Experiment: api.ExpCell, Workloads: []string{"bzip2"}, Insts: 2_000})
	start = builds()
	const insts = budget - 1_000 // a budget no earlier run memoized
	got := cell(ts.URL, api.RunRequest{XTrace: id, Insts: insts})
	if n := builds() - start; n != 1 {
		t.Errorf("the run after eviction adapted %d times, want 1", n)
	}
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, sim.Options{MaxInsts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, direct.Stats) {
		t.Errorf("re-adapted upload stats differ from the direct run:\n served: %+v\n direct: %+v", got, direct.Stats)
	}
}
