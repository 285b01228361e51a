package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// TestReportHandlerErrors pins the error surface every report route
// shares: missing job parameter, unknown format, unknown job, a job
// that has not finished, and a finished job of a different experiment.
func TestReportHandlerErrors(t *testing.T) {
	checkReportErrors(t, reportKinds)
}

// TestReuseHandlerErrors pins the /debug/reuse error surface.
func TestReuseHandlerErrors(t *testing.T) {
	checkReportErrors(t, kindsAt(t, "/debug/reuse"))
}

// TestProfileHandlerErrors pins the /debug/profile error surface.
func TestProfileHandlerErrors(t *testing.T) {
	checkReportErrors(t, kindsAt(t, "/debug/profile"))
}

// kindsAt returns the registry entry serving path, failing the test if
// no report route is mounted there.
func kindsAt(t *testing.T, path string) []reportKind {
	t.Helper()
	for _, k := range reportKinds {
		if k.path == path {
			return []reportKind{k}
		}
	}
	t.Fatalf("no report kind at %s", path)
	return nil
}

// checkReportErrors drives each kind's route through the shared error
// cases against a fig6 job held running by a gated runner.
func checkReportErrors(t *testing.T, kinds []reportKind) {
	t.Helper()
	g := newGatedRunner()
	s := New(Config{Workers: 1, Runner: g.run})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	check := func(path string, want int, what string) {
		t.Helper()
		if got := get(path); got != want {
			t.Errorf("%s: GET %s: status %d, want %d", what, path, got, want)
		}
	}

	// A queued/running job answers 409 until it settles.
	body, _ := json.Marshal(api.RunRequest{Experiment: "fig6"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env jobEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, "job to start", func() bool { return g.calls.Load() == 1 })
	for _, k := range kinds {
		check(k.path, http.StatusBadRequest, "missing job param")
		check(k.path+"?job=job-1&format=svg", http.StatusBadRequest, "unknown format")
		check(k.path+"?job=job-999999", http.StatusNotFound, "unknown job")
		check(k.path+"?job="+env.ID, http.StatusConflict, "running job")
	}

	close(g.release)
	waitFor(t, "job to finish", func() bool {
		j, ok := s.lookup(env.ID)
		return ok && j.view().State == api.StateDone
	})
	// Finished, but a fig6 sweep carries none of the reports.
	for _, k := range kinds {
		check(k.path+"?job="+env.ID, http.StatusNotFound, k.experiment+" report of a fig6 job")
	}
}
