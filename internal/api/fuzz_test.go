package api

import (
	"reflect"
	"testing"
)

// FuzzParseDiffSpec drives the -vs grammar with arbitrary strings.
// ParseDiffSpec never panics and gives the same verdict twice. A spec
// it accepts, as the variant of a diff request over one workload (or,
// naming a trace, over that trace as the baseline), passes Validate;
// canonicalizing that request again changes nothing, and its
// coalescing key is stable.
func FuzzParseDiffSpec(f *testing.F) {
	for _, s := range []string{
		"", "cse", "cse,sf", "mode=RP", "scope=block", "xtrace=test-upload",
		"cse,sf,mode=RPO,scope=inter", " CSE , Mode = rp ", "cse,cse",
		"cse,repeats=3", "bogus", "mode=XX", "scope=loop", "=", ",,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDiffSpec(s)
		if _, err2 := ParseDiffSpec(s); (err == nil) != (err2 == nil) {
			t.Fatalf("ParseDiffSpec(%q): verdict changed on a second call: %v then %v", s, err, err2)
		}
		if err != nil {
			return
		}
		reqs := []RunRequest{{Experiment: ExpDiff, Workloads: []string{"gzip"}, Diff: d}}
		if d.XTrace != "" {
			reqs = append(reqs, RunRequest{Experiment: ExpDiff, XTrace: d.XTrace, Diff: d})
		}
		for _, req := range reqs {
			if err := req.Validate(); err != nil {
				t.Fatalf("ParseDiffSpec(%q) accepted, but its request fails Validate: %v", s, err)
			}
			c := req.Canonical()
			if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
				t.Fatalf("ParseDiffSpec(%q): Canonical not idempotent:\n%+v\n%+v", s, c, cc)
			}
			if k := req.Key(); k != req.Key() || k != c.Key() {
				t.Fatalf("ParseDiffSpec(%q): key not stable: %s vs %s", s, k, c.Key())
			}
		}
	})
}
