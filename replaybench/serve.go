package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The replayd mix is a closed loop: mixClients clients each send their
// next request only once the previous reply has arrived. One request in
// five is a cold cell (a budget no earlier request used, so every layer
// below the run memo does real work); the rest repeat four fixed
// requests that are memo hits after set-up.
const (
	mixClients = 2
	coldEvery  = 5
	warmInsts  = 20_000
	coldInsts  = 12_000 // cold budgets are coldInsts + [0, 8192)
	// verifyCold is how many cold replies per run are re-simulated
	// directly, after the measured window, and compared; the traced run
	// takes the simulator layers' costs from these simulations.
	verifyCold = 8
)

// warmRequests are the repeated requests; summary is the large reply.
var warmRequests = []struct{ name, body string }{
	{"cell-gzip", `{"experiment":"cell","workloads":["gzip"],"insts":%d}`},
	{"cell-excel-rp", `{"experiment":"cell","workloads":["excel"],"mode":"RP","insts":%d}`},
	{"table3", `{"experiment":"table3","workloads":["bzip2","vortex","dream"],"insts":%d}`},
	{"summary", `{"experiment":"summary","insts":%d}`},
}

type mixSession struct {
	p      params
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client

	warmBodies []string
	warmDigest map[string]string // digest of each warm request's result
	coldOrder  []string          // profiles of successive cold cells
	coldBase   int
	coldMask   int
	toVerify   []verifyItem // the last run's first cold replies
}

func setupMix(p params) (session, error) {
	sim.ResetCaches()
	srv := server.New(server.Config{})
	s := &mixSession{
		p:          p,
		srv:        srv,
		hs:         httptest.NewServer(srv.Handler()),
		client:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}},
		warmDigest: map[string]string{},
		coldBase:   coldInsts,
		coldMask:   1<<13 - 1,
	}
	insts := warmInsts
	if p.maxInsts > 0 {
		insts, s.coldBase, s.coldMask = p.maxInsts, p.maxInsts, 1023
	}
	for _, i := range rand.New(rand.NewSource(p.seed)).Perm(len(workload.Profiles)) {
		s.coldOrder = append(s.coldOrder, workload.Profiles[i].Name)
	}
	for _, w := range warmRequests {
		body := fmt.Sprintf(w.body, insts)
		s.warmBodies = append(s.warmBodies, body)
		r := s.post(body)
		if r.err != nil {
			s.close()
			return nil, fmt.Errorf("priming %s: %w", w.name, r.err)
		}
		s.warmDigest[w.name] = digests(map[string]any{w.name: r.job.Result})[w.name]
	}
	return s, nil
}

func (s *mixSession) close() {
	s.hs.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // the run is over; a slow drain only delays exit
}

// reply is one request's outcome as the client saw it.
type reply struct {
	sent, recv time.Time
	status     int
	job        api.Job
	err        error
}

func (s *mixSession) post(body string) reply {
	r := reply{sent: time.Now()}
	resp, err := s.client.Post(s.hs.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.recv, r.status = time.Now(), resp.StatusCode
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("POST /v1/run: %s", resp.Status)
	default:
		if err := json.Unmarshal(b, &r.job); err != nil {
			r.err = fmt.Errorf("decoding reply: %w", err)
		} else if r.job.State != api.StateDone || r.job.Result == nil {
			r.err = fmt.Errorf("job %s ended %s: %s", r.job.ID, r.job.State, r.job.Error)
		}
	}
	return r
}

// mix64 is the SplitMix64 finalizer: a cheap, well-mixed hash that turns
// (seed, block) into the request schedule.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// request returns the i-th request of the seed's schedule: its body,
// and either the warm request it repeats or the cold cell it asks for.
// Every block of coldEvery requests holds one cold cell and each warm
// request once, in seeded positions, and the cold cells cycle through
// all profiles in a seeded order, so every run sends the same mix.
func (s *mixSession) request(i int) (body string, warm int, cold coldCell) {
	b, pos := i/coldEvery, i%coldEvery
	h := mix64(mix64(uint64(s.p.seed)) ^ uint64(b))
	coldPos := int(h % coldEvery)
	if pos != coldPos {
		if pos > coldPos {
			pos--
		}
		w := (pos + int(h>>8)) % len(warmRequests)
		return s.warmBodies[w], w, coldCell{}
	}
	// b*5477 is a bijection on [0, coldMask] for the 8192 blocks a run
	// could ever reach, so no two cold requests share a budget.
	cold = coldCell{
		profile: s.coldOrder[b%len(s.coldOrder)],
		insts:   s.coldBase + int((uint64(b)*5477+h>>40)&uint64(s.coldMask)),
	}
	return fmt.Sprintf(`{"experiment":"cell","workloads":[%q],"insts":%d}`, cold.profile, cold.insts), -1, cold
}

type coldCell struct {
	profile string
	insts   int
}

// mixSlice is how long the clients run between two host calibrations;
// the closed loop pauses for the calibration and resumes. insts_per_s is
// the median over slices.
const mixSlice = time.Second

// sample is one reply's timings, milliseconds.
type sample struct {
	latency, queue, exec float64
	cold, traced         bool
}

// mixAcc is what the clients of one run share.
type mixAcc struct {
	rec       *recorder
	next      atomic.Int64 // index of the next request in the schedule
	mu        sync.Mutex
	res       *result
	samples   []sample
	toVerify  []verifyItem
	coalesced int
	rejected  int
}

func (s *mixSession) run(deadline time.Time, rec *recorder, hs *hostScale) *result {
	res := newResult()
	res.digests = s.warmDigest
	if err := checkGolden("replayd-mix", s.p, s.warmDigest); err != nil {
		res.fail("%v", err)
	}
	acc := &mixAcc{rec: rec, res: res}
	before := sim.SnapshotMetrics()
	for last := before; ; {
		start := time.Now()
		end := start.Add(mixSlice)
		if end.After(deadline) {
			end = deadline
		}
		s.clients(end, acc)
		wall := time.Since(start)
		now := sim.SnapshotMetrics()
		res.rates = append(res.rates, float64(now.Aggregate.X86Retired-last.Aggregate.X86Retired)/wall.Seconds())
		last = now
		hs.calibrateAfter(wall)
		if !time.Now().Before(deadline) {
			break
		}
	}
	after := sim.SnapshotMetrics()
	res.insts = after.Aggregate.X86Retired - before.Aggregate.X86Retired
	res.instsPerS = median(res.rates)
	res.layers["sim.runs_per_op"] = float64(after.RunsExecuted-before.RunsExecuted) / float64(res.attempted)

	// Shares of the traced requests' reply time, split by the job's own
	// timestamps; HTTP handling is the reply time outside queue and exec.
	var httpMs, queueMs, execMs, warmHTTP, warmMs float64
	var warm []float64
	for _, smp := range acc.samples {
		kind := plain
		if smp.traced {
			kind = traced
			h := smp.latency - smp.queue - smp.exec
			httpMs, queueMs, execMs = httpMs+h, queueMs+smp.queue, execMs+smp.exec
			if !smp.cold {
				warmHTTP, warmMs = warmHTTP+h, warmMs+smp.latency
			}
		}
		if !smp.cold {
			warm = append(warm, smp.latency)
		}
		res.ms[kind] = append(res.ms[kind], smp.latency)
	}
	if rec != nil {
		total := httpMs + queueMs + execMs
		res.layers["server.http_frac"] = div(httpMs, total)
		res.layers["server.queue_frac"] = div(queueMs, total)
		res.layers["server.exec_frac"] = div(execMs, total)
		res.layers["server.warm_http_frac"] = div(warmHTTP, warmMs)
		res.layers["server.warm_p99_over_p50"] = div(percentile(warm, 99), median(warm))
		res.layers["server.coalesced_frac"] = float64(acc.coalesced) / float64(res.attempted)
		res.layers["server.rejected_frac"] = float64(acc.rejected) / float64(res.attempted)
		res.layers["trace_overhead"] = div(median(res.ms[traced]), median(res.ms[plain])) - 1
	}
	s.toVerify = acc.toVerify
	return res
}

// afterRun simulates the run's first cold cells again with the traced
// path, caches off, and checks the served Stats against them. The traced
// run takes the simulator layers' costs from these simulations.
func (s *mixSession) afterRun(rec *recorder, res *result) {
	r := rec
	if r == nil {
		r = newRecorder(false)
	}
	t := r.newOp(0)
	root := t.begin("replayd-mix.verify", -1)
	var cells []workload.Profile
	for _, v := range s.toVerify {
		p, err := workload.ByName(v.cell.profile)
		if err != nil {
			res.fail("%v", err)
			continue
		}
		p.XInsts = v.cell.insts
		var st pipeline.Stats
		for i := 0; i < p.Traces && err == nil; i++ {
			var ts pipeline.Stats
			ts, err = tracedTrace(t, root, p, i, p.XInsts, pipeline.ModeRePLayOpt)
			st.Add(&ts)
		}
		switch {
		case err != nil:
			res.fail("cold cell %s/%d: %v", p.Name, p.XInsts, err)
		case st != v.stats:
			res.fail("cold cell %s/%d: served Stats differ from a direct run", p.Name, p.XInsts)
		}
		cells = append(cells, p)
	}
	t.end(root)
	r.finish(t)
	if rec != nil {
		addSimLayers(rec, res, cells)
	}
}

// clients runs the closed loop until end: each client sends its next
// request once the previous reply is in, and at least one request.
func (s *mixSession) clients(end time.Time, acc *mixAcc) {
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || time.Now().Before(end); first = false {
				s.one(int(acc.next.Add(1)-1), c, acc)
			}
		}(c)
	}
	wg.Wait()
}

// one sends request i of the schedule and checks and records its reply.
func (s *mixSession) one(i, client int, acc *mixAcc) {
	body, warm, cold := s.request(i)
	r := s.post(body)
	smp := sample{latency: ms(r.recv.Sub(r.sent)), cold: warm < 0, traced: acc.rec != nil && i%2 == 1}
	problem := r.err
	if problem == nil && warm >= 0 {
		name := warmRequests[warm].name
		if d := digests(map[string]any{name: r.job.Result})[name]; d != s.warmDigest[name] {
			problem = fmt.Errorf("request %d: %s reply differs from its first reply", i, name)
		}
	}
	if problem == nil && warm < 0 && (len(r.job.Result.Cells) != 1 || r.job.Result.Cells[0].Stats.X86Retired == 0) {
		problem = fmt.Errorf("request %d: cold cell reply has no simulated cell", i)
	}
	if problem == nil {
		smp.queue = ms(r.job.StartedAt.Sub(r.job.QueuedAt))
		smp.exec = ms(r.job.DoneAt.Sub(r.job.StartedAt))
		if smp.traced {
			acc.rec.finish(requestTrace(acc.rec, client+1, r))
		}
	}
	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.res.attempted++
	if problem != nil {
		acc.res.fail("%v", problem)
		if r.status == http.StatusServiceUnavailable {
			acc.rejected++
		}
		return
	}
	acc.samples = append(acc.samples, smp)
	if r.job.Coalesced {
		acc.coalesced++
	}
	if warm < 0 && len(acc.toVerify) < verifyCold {
		acc.toVerify = append(acc.toVerify, verifyItem{cold, r.job.Result.Cells[0].Stats})
	}
}

// requestTrace turns one reply into spans: the client's request, split
// by the job's own timestamps into HTTP handling before and after, the
// queue wait and the execution.
func requestTrace(rec *recorder, tid int, r reply) *opTrace {
	at := func(t time.Time) int64 { return int64(t.Round(0).Sub(rec.epoch.Round(0))) }
	sent, recv := at(r.sent), at(r.recv)
	clamp := func(t time.Time) int64 { return max(sent, min(recv, at(t))) }
	queued, started, done := clamp(r.job.QueuedAt), clamp(r.job.StartedAt), clamp(r.job.DoneAt)
	t := rec.newOp(tid)
	t.add("replayd-mix", -1, sent, recv)
	t.spans[0].label = r.job.Key
	t.add("server.http", 0, sent, queued)
	t.add("server.queue", 0, queued, started)
	t.add("server.exec", 0, started, done)
	t.add("server.http", 0, done, recv)
	return t
}

// verifyItem is a cold reply to re-simulate directly.
type verifyItem struct {
	cell  coldCell
	stats pipeline.Stats
}
