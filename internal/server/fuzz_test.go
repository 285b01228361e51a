package server

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzRunRequest drives the handlers' request decoding with arbitrary
// bodies. decodeRequest (the strict decode POST /v1/run and /v1/jobs
// use) and Validate never panic. For a request Validate accepts,
// canonicalizing it again changes nothing, its canonical form passes
// Validate too, and its coalescing key is stable and equal to its
// canonical form's.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		// The repeated requests of the replayd-mix benchmark.
		`{"experiment":"cell","workloads":["gzip"],"insts":20000}`,
		`{"experiment":"cell","workloads":["excel"],"mode":"RP","insts":20000}`,
		`{"experiment":"table3","workloads":["bzip2","vortex","dream"],"insts":20000}`,
		`{"experiment":"summary","insts":20000}`,
		// Bodies the server tests post.
		`{"experiment":"Table3","workloads":["GZIP"],"insts":2000}`,
		`{"experiment":"fig6","workloads":["gzip","bzip2"],"insts":1000}`,
		`{"experiment":"fig6","config":{"disable_opts":["sf","cse","cse"]}}`,
		`{"experiment":"fig99"}`,
		`{"experiment":"cell","mode":"XX"}`,
		`{"experiment":"fig6","config":{"disable_opts":["zap"]}}`,
		`{"experiment":"fig6","workloads":["nosuch"]}`,
		`{"experiment":"cell","workloads":["gzip"],"insts":1000,"config":{"width":4611686018427387904}}`,
		`{"experiment":"cell","workloads":["gzip"],"insts":1000,"trace":true}`,
		`{"experiment":"attr","workloads":["gzip"],"insts":60000}`,
		`{"xtrace":"abababababababababababababababababababababababababababababababab"}`,
		`{"experiment":"reuse","workloads":["gzip"],"xtrace":"ab"}`,
		`{"experiment":"diff","workloads":["gzip"],"insts":20000,"diff":{"config":{"disable_opts":["cse","sf"]}}}`,
		`{"experiment":"diff","workloads":["gzip"],"insts":20000,"diff":{"repeats":2}}`,
		`{"experiment":"diff","xtrace":"ab","diff":{"mode":"rp","xtrace":"cd"}}`,
		`{"experiment":"fig10","workloads":["gzip"],"warmup_frac":0.5}`,
		`{"bsae":{}}`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(httptest.NewRequest("POST", "/v1/run", bytes.NewReader(body)))
		if err != nil || req.Validate() != nil {
			return
		}
		c := req.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			t.Fatalf("%s: Canonical not idempotent:\n%+v\n%+v", body, c, cc)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: accepted, but its canonical form fails Validate: %v", body, err)
		}
		if k := req.Key(); k != req.Key() || k != c.Key() {
			t.Fatalf("%s: key not stable: %s vs %s", body, k, c.Key())
		}
	})
}
