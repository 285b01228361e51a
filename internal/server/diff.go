package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The ablation-diff front end: POST /v1/diff compares two
// configurations — given either as two run specs or as two finished
// job IDs — by translating the pair into one canonical diff-experiment
// job, so comparisons share the queue, coalescing, memoization and
// cancellation discipline of every other experiment. GET
// /debug/diff?job=ID serves a finished diff job's report.

// diffMetrics counts comparison traffic for /metrics.
type diffMetrics struct {
	jobs         atomic.Uint64 // finished diff jobs folded
	loops        atomic.Uint64 // per-loop delta rows across folded reports
	regressions  atomic.Uint64 // significance-gated regression verdicts
	improvements atomic.Uint64 // significance-gated improvement verdicts
}

// fold merges one finished diff job's report into the counters.
func (m *diffMetrics) fold(rep *sim.DiffReport) {
	m.jobs.Add(1)
	m.loops.Add(uint64(rep.LoopsCompared()))
	m.regressions.Add(uint64(rep.SignificantRegressions()))
	m.improvements.Add(uint64(rep.SignificantImprovements()))
}

// render writes the replayd_diff_* families.
func (m *diffMetrics) render(p *stats.Prom) {
	p.Counter("replayd_diff_jobs_total",
		"Diff-experiment jobs whose comparison reports were folded into these aggregates.",
		float64(m.jobs.Load()))
	p.Counter("replayd_diff_loops_compared_total",
		"Per-loop delta rows produced across diff-experiment jobs (union of both sides' loop partitions).",
		float64(m.loops.Load()))
	p.Counter("replayd_diff_significant_regressions_total",
		"Top-line metric deltas that cleared the 2-sigma noise gate in the regressing direction across diff-experiment jobs.",
		float64(m.regressions.Load()))
	p.Counter("replayd_diff_significant_improvements_total",
		"Top-line metric deltas that cleared the 2-sigma noise gate in the improving direction across diff-experiment jobs.",
		float64(m.improvements.Load()))
}

// diffPostRequest is the POST /v1/diff body: either two run specs
// (cell-style requests describing each side) or two finished job IDs
// whose stored requests supply the sides.
type diffPostRequest struct {
	Base    *api.RunRequest `json:"base,omitempty"`
	Variant *api.RunRequest `json:"variant,omitempty"`
	BaseJob string          `json:"base_job,omitempty"`
	VarJob  string          `json:"var_job,omitempty"`
	// Repeats is the per-side repeat count feeding the significance
	// gate (default 1).
	Repeats int `json:"repeats,omitempty"`
}

// handleDiff translates the comparison into one canonical diff job and
// runs it synchronously (the handleRun discipline: a client disconnect
// releases its interest). Because the pair reduces to a canonical
// RunRequest, two clients asking for the same comparison — however
// they spelled it — coalesce onto one job.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var dr diffPostRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dr); err != nil {
		writeErr(w, &errSubmit{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()})
		return
	}
	req, err := s.diffRunRequest(dr)
	if err != nil {
		writeErr(w, err)
		return
	}
	j, coalesced, err := s.submit(r.Context(), req, false)
	if err != nil {
		writeErr(w, err)
		return
	}
	select {
	case <-j.done:
		s.releaseWaiter(j)
		v := j.view()
		v.Coalesced = coalesced
		status := http.StatusOK
		if v.State == api.StateFailed {
			status = http.StatusInternalServerError
		} else if v.State == api.StateCanceled {
			status = http.StatusConflict
		}
		writeJSON(w, status, v)
	case <-r.Context().Done():
		s.releaseWaiter(j)
	}
}

// diffRunRequest folds the two sides into one diff-experiment request:
// the baseline side becomes the request's own Mode/Config/XTrace, the
// variant side becomes the Diff spec.
func (s *Server) diffRunRequest(dr diffPostRequest) (api.RunRequest, error) {
	base, vari := dr.Base, dr.Variant
	switch {
	case dr.BaseJob != "" || dr.VarJob != "":
		if base != nil || vari != nil {
			return api.RunRequest{}, &errSubmit{status: http.StatusBadRequest,
				msg: "give either two run specs (base, variant) or two job IDs (base_job, var_job), not both"}
		}
		var err error
		if base, err = s.jobSpec(dr.BaseJob); err != nil {
			return api.RunRequest{}, err
		}
		if vari, err = s.jobSpec(dr.VarJob); err != nil {
			return api.RunRequest{}, err
		}
	case base == nil || vari == nil:
		return api.RunRequest{}, &errSubmit{status: http.StatusBadRequest,
			msg: "diff needs both sides: base and variant run specs, or base_job and var_job IDs"}
	}

	b, v := base.Canonical(), vari.Canonical()
	if b.Experiment != api.ExpCell || v.Experiment != api.ExpCell {
		return api.RunRequest{}, &errSubmit{status: http.StatusBadRequest,
			msg: "diff sides must be cell-style run specs (a workload/trace under one configuration)"}
	}
	// The sides must run the same work for the per-loop join to mean
	// anything: same workload set unless the variant replays a different
	// trace, and one instruction budget.
	sameWorkloads := len(b.Workloads) == len(v.Workloads)
	if sameWorkloads {
		for i := range b.Workloads {
			if b.Workloads[i] != v.Workloads[i] {
				sameWorkloads = false
				break
			}
		}
	}
	varXTrace := ""
	if v.XTrace != b.XTrace {
		varXTrace = v.XTrace
	}
	if varXTrace == "" && (!sameWorkloads || v.XTrace != b.XTrace) {
		return api.RunRequest{}, &errSubmit{status: http.StatusBadRequest,
			msg: "diff sides must run the same workloads (or the variant must name its own xtrace)"}
	}
	if varXTrace != "" && b.XTrace == "" && len(b.Workloads) != 1 {
		return api.RunRequest{}, &errSubmit{status: http.StatusBadRequest,
			msg: "a trace-variant diff needs a single-source baseline (an xtrace or exactly one workload)"}
	}
	if b.Insts != v.Insts || b.WarmupFrac != v.WarmupFrac {
		return api.RunRequest{}, &errSubmit{status: http.StatusBadRequest,
			msg: "diff sides must share the instruction budget and warmup fraction"}
	}

	req := api.RunRequest{
		Experiment: api.ExpDiff,
		Workloads:  b.Workloads,
		Insts:      b.Insts,
		WarmupFrac: b.WarmupFrac,
		Mode:       b.Mode,
		Config:     b.Config,
		XTrace:     b.XTrace,
		Diff: &api.DiffSpec{
			Mode:    v.Mode,
			Config:  v.Config,
			XTrace:  varXTrace,
			Repeats: dr.Repeats,
		},
	}
	return req, nil
}

// jobSpec recovers a finished job's canonical request for use as one
// side of a comparison.
func (s *Server) jobSpec(id string) (*api.RunRequest, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, &errSubmit{status: http.StatusNotFound, msg: fmt.Sprintf("no such job %q", id)}
	}
	req := j.req
	return &req, nil
}
