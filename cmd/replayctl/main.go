// Command replayctl is the replayd client and load generator: it
// submits experiment requests (optionally many identical ones in
// parallel, to exercise the daemon's coalescing), watches job progress,
// and scrapes metrics.
//
// Usage:
//
//	replayctl -experiment fig6 [-workloads a,b] [-insts N] [-mode RPO]
//	          [-n 8] [-async] [-json] [-job-trace out.json]
//	replayctl -upload trace.xut
//	replayctl -run-trace <id> [-mode RPO] [-insts N]
//	replayctl -watch job-000001
//	replayctl -metrics [-raw]
//	replayctl -traces
//	replayctl -trace 0af7651916cd43dd8448eb211c80319c
//	replayctl -reuse job-000001
//	replayctl -reuse trace:<id> [-workloads a,b]
//	replayctl -profile job-000002 [-pprof-out guest.pb.gz]
//	replayctl -diff job-000003
//
// -upload sends an external uop-trace file (tracegen -export) to the
// daemon's POST /v1/traces spool and prints its content-addressed ID;
// -run-trace simulates a spooled trace by that ID through the normal
// job queue (coalescing, memoization, and -n/-async/-json all apply).
//
// Every request carries a fresh W3C traceparent header, so the daemon's
// span trace continues from a client root; the job line prints the
// trace ID, and -trace <id> fetches that span trace back from
// /debug/traces/{id} as a flame-style text view (-json for the raw
// spans). -traces lists what the daemon's tail sampler kept.
//
// -reuse fetches a finished reuse job's report from /debug/reuse?job=ID
// and renders the loop-depth decomposition, reuse-mass bars, and the
// ranked representative workload subset (-json for the raw report).
// -reuse, -profile and -diff print the same text as replaysim's reuse,
// cycles and diff experiments, under a heading naming the job.
// -reuse trace:<id> instead decomposes a spooled external trace and
// ranks it alongside any -workloads, so an upload can audition for the
// representative subset; the "-reuse -trace <id>" spelling is accepted
// as an alias.
//
// -diff fetches a finished diff job's comparison from /debug/diff?job=ID
// and renders it side by side: top-line metric deltas, each with its
// verdict (improved, regressed or unchanged, by the delta's sign and the
// metric's direction; each side runs once, since the simulator is
// deterministic), per-pass removal deltas, and the heaviest per-loop
// deltas as signed bars. Submit a
// comparison with POST /v1/diff (two run specs or two finished job IDs).
//
// -profile fetches a finished cycles job's guest-cycle profile from
// /debug/profile?job=ID and renders the per-bin cycle split and the
// top-N loop and PC hotspots (-json for the raw report); -pprof-out
// saves the gzipped pprof export alongside, for `go tool pprof`.
//
// -metrics renders the daemon's Prometheus exposition as tables and
// per-bucket histogram bars, with OpenMetrics exemplars (the trace IDs
// sampled into histogram buckets) listed under each histogram; -raw
// prints the exposition verbatim. -job-trace saves a frame-lifecycle
// Chrome trace_event file — the micro-op-level view, distinct from the
// request-level span traces.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracing"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "replayd base URL")
	experiment := flag.String("experiment", "summary", "experiment to request (fig6..fig10, table3, summary, cell)")
	workloads := flag.String("workloads", "", "comma-separated workload subset")
	insts := flag.Int("insts", 0, "per-trace instruction budget override")
	warmup := flag.Float64("warmup", 0, "warmup fraction override")
	mode := flag.String("mode", "", "processor mode for cell runs (IC, TC, RP, RPO)")
	scope := flag.String("scope", "", "optimizer scope override (block, inter, frame)")
	disable := flag.String("disable", "", "comma-separated optimizations to disable (asst,cp,cse,nop,ra,sf,spec)")
	n := flag.Int("n", 1, "number of identical concurrent requests (coalescing load test)")
	async := flag.Bool("async", false, "enqueue without waiting (POST /v1/jobs)")
	jsonOut := flag.Bool("json", false, "print the raw result JSON only")
	watch := flag.String("watch", "", "stream progress events of a job ID and exit")
	metrics := flag.Bool("metrics", false, "pretty-print the daemon's /metrics and exit")
	raw := flag.Bool("raw", false, "with -metrics, print the Prometheus exposition verbatim instead of tables")
	traceOut := flag.String("job-trace", "", "request a frame-lifecycle trace and save the Chrome trace_event JSON to this file")
	traceID := flag.String("trace", "", "fetch one span trace by ID from /debug/traces and print its flame view (-json for the raw spans)")
	traces := flag.Bool("traces", false, "list the span traces kept by the daemon's tail sampler and exit")
	reuseJob := flag.String("reuse", "", "fetch a finished reuse job's report from /debug/reuse and render it; trace:<id> decomposes a spooled trace instead (alongside any -workloads)")
	diffJob := flag.String("diff", "", "fetch a finished diff job's comparison from /debug/diff and render it side by side")
	profileJob := flag.String("profile", "", "fetch a finished cycles job's guest-cycle profile from /debug/profile and render it")
	pprofOut := flag.String("pprof-out", "", "with -profile, also save the gzipped pprof export to this file")
	upload := flag.String("upload", "", "upload an external uop-trace file to the daemon's spool and exit")
	runTrace := flag.String("run-trace", "", "run a spooled external trace by content ID")
	timeout := flag.Duration("timeout", 10*time.Minute, "per-request HTTP timeout")
	flag.Parse()

	client := &http.Client{Timeout: *timeout}
	base := strings.TrimRight(*addr, "/")

	switch {
	case *upload != "":
		if err := uploadTrace(client, base, *upload, *jsonOut); err != nil {
			fatal(err)
		}
	case *runTrace != "":
		req := api.RunRequest{
			XTrace:     *runTrace,
			Mode:       *mode,
			Insts:      *insts,
			WarmupFrac: *warmup,
		}
		if err := run(client, base, req, *n, *async, *jsonOut, ""); err != nil {
			fatal(err)
		}
	case *traces:
		if err := listTraces(client, base); err != nil {
			fatal(err)
		}
	case *reuseJob != "":
		// Two trace spellings reach the same job: the canonical
		// -reuse trace:<id>, and the natural-but-wrong -reuse -trace <id>
		// (the flag package eats "-trace" as -reuse's value and leaves the
		// ID positional).
		id := *reuseJob
		if id == "-trace" && flag.NArg() == 1 {
			id = "trace:" + flag.Arg(0)
		}
		if tid, ok := strings.CutPrefix(id, "trace:"); ok {
			if err := runReuseTrace(client, base, tid, *workloads, *insts, *jsonOut); err != nil {
				fatal(err)
			}
			break
		}
		if err := showReuse(client, base, id, *jsonOut); err != nil {
			fatal(err)
		}
	case *diffJob != "":
		if err := showDiff(client, base, *diffJob, *jsonOut); err != nil {
			fatal(err)
		}
	case *profileJob != "":
		if err := showProfile(client, base, *profileJob, *pprofOut, *jsonOut); err != nil {
			fatal(err)
		}
	case *traceID != "":
		format := "text"
		if *jsonOut {
			format = "json"
		}
		if err := get(client, base+"/debug/traces/"+*traceID+"?format="+format, os.Stdout); err != nil {
			fatal(err)
		}
	case *metrics:
		if *raw {
			if err := get(client, base+"/metrics", os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		var buf bytes.Buffer
		if err := get(client, base+"/metrics", &buf); err != nil {
			fatal(err)
		}
		if err := printMetrics(&buf, os.Stdout); err != nil {
			fatal(err)
		}
	case *watch != "":
		if err := watchJob(base, *watch); err != nil {
			fatal(err)
		}
	default:
		req := api.RunRequest{
			Experiment: *experiment,
			Insts:      *insts,
			WarmupFrac: *warmup,
			Mode:       *mode,
		}
		if *workloads != "" {
			req.Workloads = strings.Split(*workloads, ",")
		}
		if *scope != "" || *disable != "" {
			cfg := &api.ConfigOverrides{OptScope: *scope}
			if *disable != "" {
				cfg.DisableOpts = strings.Split(*disable, ",")
			}
			req.Config = cfg
		}
		req.Trace = *traceOut != ""
		if err := run(client, base, req, *n, *async, *jsonOut, *traceOut); err != nil {
			fatal(err)
		}
	}
}

// printMetrics renders a Prometheus exposition readably: counters and
// gauges as one table, each histogram as per-bucket bars.
func printMetrics(r io.Reader, w io.Writer) error {
	fams, err := stats.ParseProm(r)
	if err != nil {
		return err
	}
	t := stats.NewTable("Metric", "Type", "Value")
	var hists, labeled []stats.PromFamily
	for _, f := range fams {
		if f.Type == "histogram" {
			hists = append(hists, f)
			continue
		}
		if len(f.Labeled) > 0 {
			labeled = append(labeled, f)
		}
		t.Row(f.Name, f.Type, strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", f.Value), "0"), "."))
	}
	t.Write(w)
	// Labeled families (one counter per bin/bucket) get a bar breakdown:
	// the table row above shows their sum.
	for _, f := range labeled {
		fmt.Fprintf(w, "\n%s by label:\n", f.Name)
		maxV := 1.0
		for _, s := range f.Labeled {
			if s.Value > maxV {
				maxV = s.Value
			}
		}
		for _, s := range f.Labeled {
			stats.Bar(w, s.Labels, s.Value, maxV, 40, "%.0f")
		}
	}
	for _, h := range hists {
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / h.Count
		}
		// The mean keeps four significant digits, so a seconds-valued
		// histogram of millisecond samples does not read "mean 0.0".
		fmt.Fprintf(w, "\n%s (histogram): %.0f samples, mean %s\n", h.Name, h.Count,
			strconv.FormatFloat(mean, 'g', 4, 64))
		// Exposition buckets are cumulative; diff them back into
		// per-bucket counts for the bars.
		prev, maxN := 0.0, 1.0
		counts := make([]float64, len(h.Buckets))
		for i, b := range h.Buckets {
			counts[i] = b.Count - prev
			prev = b.Count
			if counts[i] > maxN {
				maxN = counts[i]
			}
		}
		// Bucket labels use the exposition's shortest-float form, so
		// close bounds (0.001, 0.0025) stay distinct; +Inf prints as such.
		for i, b := range h.Buckets {
			stats.Bar(w, "le="+strconv.FormatFloat(b.Le, 'g', -1, 64), counts[i], maxN, 40, "%.0f")
		}
		for _, b := range h.Buckets {
			if b.Exemplar != nil && b.Exemplar.TraceID != "" {
				fmt.Fprintf(w, "  exemplar le=%s: trace=%s value=%.4g\n",
					strconv.FormatFloat(b.Le, 'g', -1, 64), b.Exemplar.TraceID, b.Exemplar.Value)
			}
		}
	}
	return nil
}

// uploadTrace streams one external trace file to POST /v1/traces and
// prints the spool's view of it. Rejections surface the daemon's
// structured error (kind, limit) rather than a bare status line.
func uploadTrace(client *http.Client, base, path string, jsonOut bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	resp, err := client.Post(base+"/v1/traces", "application/octet-stream", f)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		var e struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
			Limit int64  `json:"limit_bytes"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			if e.Limit > 0 {
				return fmt.Errorf("%s: %s (%s, limit %d bytes)", resp.Status, e.Error, e.Kind, e.Limit)
			}
			return fmt.Errorf("%s: %s (%s)", resp.Status, e.Error, e.Kind)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	if jsonOut {
		os.Stdout.Write(append(bytes.TrimSpace(b), '\n'))
		return nil
	}
	var info struct {
		ID        string `json:"id"`
		Name      string `json:"name"`
		Records   uint64 `json:"records"`
		Insts     uint32 `json:"insts"`
		Bytes     int64  `json:"bytes"`
		Duplicate bool   `json:"duplicate"`
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return fmt.Errorf("decoding upload response: %w", err)
	}
	verb := "uploaded"
	if info.Duplicate {
		verb = "already spooled"
	}
	fmt.Printf("%s %s: id %s (%d records, %d insts, %d bytes)\n",
		verb, path, info.ID, info.Records, info.Insts, info.Bytes)
	fmt.Printf("run it with: replayctl -run-trace %s\n", info.ID)
	return nil
}

// showReuse fetches a finished reuse job's report and renders it with
// the same writer as replaysim's -experiment reuse table.
func showReuse(client *http.Client, base, jobID string, jsonOut bool) error {
	var rep sim.ReuseReport
	if ok, err := fetchReport(client, base+"/debug/reuse?job="+jobID, jsonOut, &rep); !ok {
		return err
	}
	fmt.Printf("reuse report for %s (%d workloads)\n\n", jobID, len(rep.Rows))
	rep.WriteText(os.Stdout)
	return nil
}

// runReuseTrace submits a reuse job against a spooled trace (optionally
// ranking it alongside explicitly listed workloads) and renders the
// resulting decomposition — the upload-side twin of -reuse <job>.
func runReuseTrace(client *http.Client, base, traceID, workloads string, insts int, jsonOut bool) error {
	req := api.RunRequest{Experiment: api.ExpReuse, XTrace: traceID, Insts: insts}
	if workloads != "" {
		req.Workloads = strings.Split(workloads, ",")
	}
	j, err := post(client, base+"/v1/run", req)
	if err != nil {
		return err
	}
	if j.Error != "" {
		return fmt.Errorf("job %s: %s", j.ID, j.Error)
	}
	if j.Result == nil || j.Result.Reuse == nil {
		return fmt.Errorf("job %s returned no reuse report", j.ID)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(j.Result)
	}
	fmt.Printf("reuse decomposition of trace %s (job %s) (%d workloads)\n\n", traceID, j.ID, len(j.Result.Reuse.Rows))
	j.Result.Reuse.WriteText(os.Stdout)
	return nil
}

// showDiff fetches a finished diff job's comparison report and renders
// it with the same writer as replaysim's -experiment diff output.
func showDiff(client *http.Client, base, jobID string, jsonOut bool) error {
	var rep sim.DiffReport
	if ok, err := fetchReport(client, base+"/debug/diff?job="+jobID, jsonOut, &rep); !ok {
		return err
	}
	fmt.Printf("ablation diff for %s: %s vs %s (%d workloads)\n\n",
		jobID, rep.Baseline, rep.Variant, len(rep.Rows))
	rep.WriteText(os.Stdout)
	return nil
}

// showProfile fetches a finished cycles job's guest-cycle profile and
// renders it with the same writer as replaysim's -experiment cycles
// table. With pprofOut it also fetches the format=pprof export and saves
// it for `go tool pprof`.
func showProfile(client *http.Client, base, jobID, pprofOut string, jsonOut bool) error {
	if pprofOut != "" {
		var pb bytes.Buffer
		if err := get(client, base+"/debug/profile?job="+jobID+"&format=pprof", &pb); err != nil {
			return err
		}
		if err := os.WriteFile(pprofOut, pb.Bytes(), 0o644); err != nil {
			return err
		}
	}
	var rep sim.CycleReport
	if ok, err := fetchReport(client, base+"/debug/profile?job="+jobID, jsonOut, &rep); !ok {
		return err
	}
	fmt.Printf("guest-cycle profile for %s (%d workloads)\n\n", jobID, len(rep.Rows))
	rep.WriteText(os.Stdout)
	if pprofOut != "" {
		fmt.Printf("\npprof export saved to %s (inspect with: go tool pprof -top %s)\n", pprofOut, pprofOut)
	}
	return nil
}

// listTraces renders /debug/traces — the span traces the daemon's tail
// sampler kept — as a table, newest first.
func listTraces(client *http.Client, base string) error {
	var buf bytes.Buffer
	if err := get(client, base+"/debug/traces", &buf); err != nil {
		return err
	}
	var sums []struct {
		TraceID  string        `json:"trace_id"`
		Root     string        `json:"root"`
		Start    time.Time     `json:"start"`
		Duration time.Duration `json:"duration_ns"`
		Spans    int           `json:"spans"`
		Error    bool          `json:"error"`
		Reason   string        `json:"reason"`
	}
	if err := json.Unmarshal(buf.Bytes(), &sums); err != nil {
		return fmt.Errorf("decoding trace list: %w", err)
	}
	if len(sums) == 0 {
		fmt.Println("no traces stored (evicted or sampled out)")
		return nil
	}
	t := stats.NewTable("Trace", "Root", "Start", "Duration", "Spans", "Kept as")
	for _, s := range sums {
		kept := s.Reason
		if s.Error {
			kept += " (error)"
		}
		t.Row(s.TraceID, s.Root, s.Start.Format("15:04:05.000"),
			s.Duration.Round(time.Microsecond).String(), s.Spans, kept)
	}
	t.Write(os.Stdout)
	fmt.Println("\nfetch one with: replayctl -trace <id>")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replayctl:", err)
	os.Exit(1)
}

func get(client *http.Client, url string, w io.Writer) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// fetchReport GETs a finished job's /debug report. With jsonOut it
// prints the raw JSON and returns ok=false; otherwise it decodes the
// report into v for rendering.
func fetchReport(client *http.Client, url string, jsonOut bool, v any) (ok bool, err error) {
	var buf bytes.Buffer
	if err := get(client, url, &buf); err != nil {
		return false, err
	}
	if jsonOut {
		os.Stdout.Write(append(bytes.TrimRight(buf.Bytes(), "\n"), '\n'))
		return false, nil
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return false, fmt.Errorf("decoding %s: %w", url, err)
	}
	return true, nil
}

// post sends the request to path with a fresh client traceparent (so
// the daemon's span trace roots under a client span) and decodes the
// job it returns.
func post(client *http.Client, url string, req api.RunRequest) (api.Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return api.Job{}, err
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return api.Job{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	tp := tracing.Traceparent{
		Trace: tracing.NewTraceID(),
		Span:  tracing.NewSpanID(),
		Flags: tracing.FlagSampled,
	}
	hreq.Header.Set(tracing.TraceparentHeader, tp.String())
	resp, err := client.Do(hreq)
	if err != nil {
		return api.Job{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return api.Job{}, err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return api.Job{}, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return api.Job{}, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	var j api.Job
	if err := json.Unmarshal(b, &j); err != nil {
		return api.Job{}, fmt.Errorf("decoding job: %w", err)
	}
	return j, nil
}

// run fires n identical requests concurrently and reports what the
// daemon did with them (how many coalesced, wall time, result).
func run(client *http.Client, base string, req api.RunRequest, n int, async, jsonOut bool, traceOut string) error {
	path := base + "/v1/run"
	if async {
		path = base + "/v1/jobs"
	}
	if n < 1 {
		n = 1
	}
	jobs := make([]api.Job, n)
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = post(client, path, req)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	coalesced := 0
	ids := map[string]bool{}
	for _, j := range jobs {
		if j.Coalesced {
			coalesced++
		}
		ids[j.ID] = true
	}
	final := jobs[0]
	for _, j := range jobs {
		if j.Result != nil {
			final = j
			break
		}
	}

	if traceOut != "" && !async {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		err = get(client, base+"/debug/trace?job="+final.ID, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("fetching trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", traceOut)
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if final.Result != nil {
			return enc.Encode(final.Result)
		}
		return enc.Encode(final)
	}
	if n > 1 {
		fmt.Printf("%d requests -> %d distinct job(s), %d coalesced, wall %s\n",
			n, len(ids), coalesced, wall.Round(time.Millisecond))
	}
	fmt.Printf("job %s  state=%s  key=%s", final.ID, final.State, final.Key)
	if final.TraceID != "" {
		fmt.Printf("  trace=%s", final.TraceID)
	}
	fmt.Println()
	if final.Error != "" {
		fmt.Printf("error: %s\n", final.Error)
	}
	if final.Result != nil {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(final.Result)
	}
	return nil
}

// watchJob tails the NDJSON event stream of one job. It uses an
// untimed client: streams outlive the normal request timeout.
func watchJob(base, id string) error {
	c := &http.Client{}
	resp, err := c.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e api.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return err
		}
		switch {
		case e.Msg != "" && e.Total > 0:
			fmt.Printf("[%3d/%3d] %s\n", e.Done, e.Total, e.Msg)
		case e.Msg != "":
			fmt.Println(e.Msg)
		default:
			fmt.Printf("state: %s\n", e.State)
		}
	}
	return sc.Err()
}
