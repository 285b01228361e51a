package server

import (
	"net/http"

	"repro/internal/api"
	"repro/internal/cycleprof"
	"repro/internal/stats"
)

// reportKind is one per-experiment report a finished job carries: where
// it is served, how it is named in errors, the representations besides
// JSON, and how it folds into /metrics when the job settles.
type reportKind struct {
	path       string // the GET route, served with ?job=ID
	what       string // the report's name in error messages
	experiment string // the experiment that produces it
	// report returns the result's report, ok=false when it has none.
	report  func(*api.RunResponse) (rep any, ok bool)
	formats []reportFormat
	// fold merges a finished job's report into the server's aggregates;
	// render writes those aggregates' /metrics families.
	fold   func(s *Server, res *api.RunResponse, traceID string)
	render func(s *Server, p *stats.Prom)
}

// reportFormat is a non-JSON representation, selected by ?format=name.
// A non-empty filename makes the response an attachment.
type reportFormat struct {
	name, contentType, filename string
	encode                      func(*api.RunResponse) ([]byte, error)
}

// reportKinds is the registry behind the report routes, in /metrics
// render order.
var reportKinds = []reportKind{
	{
		path: "/debug/reuse", what: "reuse report", experiment: api.ExpReuse,
		report: func(r *api.RunResponse) (any, bool) { return r.Reuse, r.Reuse != nil },
		fold:   func(s *Server, r *api.RunResponse, traceID string) { s.rmet.fold(r.Reuse, traceID) },
		render: func(s *Server, p *stats.Prom) { s.rmet.render(p) },
	},
	{
		// The guest-cycle profile also serves as gzipped pprof protobuf
		// (samples = cycles, labels = bin, locations = guest PCs under
		// synthetic loop frames) and as collapsed flame stacks.
		path: "/debug/profile", what: "cycle profile", experiment: api.ExpCycles,
		report: func(r *api.RunResponse) (any, bool) { return r.Cycles, r.Cycles != nil },
		formats: []reportFormat{
			{"pprof", "application/octet-stream", "guest.pb.gz", func(r *api.RunResponse) ([]byte, error) {
				return cycleprof.Profile(r.Cycles.Profiles())
			}},
			{"text", "text/plain; charset=utf-8", "", func(r *api.RunResponse) ([]byte, error) {
				return cycleprof.FlameText(r.Cycles.Profiles()), nil
			}},
		},
		fold:   func(s *Server, r *api.RunResponse, _ string) { s.cmet.fold(r.Cycles) },
		render: func(s *Server, p *stats.Prom) { s.cmet.render(p) },
	},
	{
		path: "/debug/diff", what: "diff report", experiment: api.ExpDiff,
		report: func(r *api.RunResponse) (any, bool) { return r.Diff, r.Diff != nil },
		fold:   func(s *Server, r *api.RunResponse, _ string) { s.dmet.fold(r.Diff) },
		render: func(s *Server, p *stats.Prom) { s.dmet.render(p) },
	},
}

// handleReport serves a finished job's report of kind k: JSON by
// default, or one of the kind's other formats.
func (s *Server) handleReport(k reportKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fail := func(status int, msg string) { writeJSON(w, status, map[string]string{"error": msg}) }
		id := r.URL.Query().Get("job")
		if id == "" {
			fail(http.StatusBadRequest, "missing job query parameter")
			return
		}
		var format *reportFormat
		want := "json"
		f := r.URL.Query().Get("format")
		for i := range k.formats {
			want += ", " + k.formats[i].name
			if k.formats[i].name == f {
				format = &k.formats[i]
			}
		}
		if format == nil && f != "" && f != "json" {
			fail(http.StatusBadRequest, "unknown format; want one of "+want)
			return
		}
		j, ok := s.lookup(id)
		if !ok {
			fail(http.StatusNotFound, "no such job")
			return
		}
		v := j.view()
		switch v.State {
		case api.StateQueued, api.StateRunning:
			fail(http.StatusConflict, "job has not finished; "+k.what+" not available yet")
			return
		}
		rep, ok := any(nil), false
		if v.Result != nil {
			rep, ok = k.report(v.Result)
		}
		if !ok {
			fail(http.StatusNotFound, "job has no "+k.what+"; submit it with experiment \""+k.experiment+"\"")
			return
		}
		if format == nil {
			writeJSON(w, http.StatusOK, rep)
			return
		}
		data, err := format.encode(v.Result)
		if err != nil {
			fail(http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", format.contentType)
		if format.filename != "" {
			w.Header().Set("Content-Disposition", `attachment; filename="`+format.filename+`"`)
		}
		w.Write(data)
	}
}
