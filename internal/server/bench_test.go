package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// BenchmarkUploadWarmRun times one warm RPO cell request, its run
// already in the memo, through the HTTP front end: "upload" over a
// spooled 300k-instruction gzip export, "builtin" over built-in gzip at
// the same default budget. What the upload case costs beyond the
// built-in one is what resolving a spooled trace costs per request.
func BenchmarkUploadWarmRun(b *testing.B) {
	const insts = 300_000
	s := New(Config{Workers: 1, SpoolDir: b.TempDir()})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := exportGzip(b, insts)
	out, status := upload(b, ts.URL, body)
	if status != http.StatusCreated {
		b.Fatalf("upload status %d: %v", status, out)
	}
	id, _ := out["id"].(string)
	for _, c := range []struct {
		name string
		req  api.RunRequest
	}{
		{"upload", api.RunRequest{XTrace: id}},
		{"builtin", api.RunRequest{Experiment: api.ExpCell, Workloads: []string{"gzip"}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			run := func() {
				env, status := postRun(b, ts.URL+"/v1/run", c.req)
				if status != http.StatusOK || env.State != api.StateDone {
					b.Fatalf("run status %d state %q error %q", status, env.State, env.Error)
				}
			}
			run() // the cold run fills the memo
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
