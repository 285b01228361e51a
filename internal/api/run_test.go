package api

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testUpload captures gzip's slot stream as a stand-in uploaded trace,
// served by the returned resolver under the trace's ID.
func testUpload(t *testing.T, budget int) (*sim.ExternalRun, Resolver) {
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
	up := &sim.ExternalRun{Name: "upload", Fingerprint: "test-upload", Recording: rec, Insts: budget}
	return up, func(id string) (*sim.ExternalRun, error) {
		if id != up.Fingerprint {
			return nil, fmt.Errorf("no uploaded trace %q", id)
		}
		return up, nil
	}
}

// rowNames lists the workloads a response's rows cover, in row order.
func rowNames(res *RunResponse) []string {
	var names []string
	switch {
	case res.Fig6 != nil:
		for _, r := range res.Fig6 {
			names = append(names, r.Workload)
		}
	case res.Breakdown != nil:
		for _, r := range res.Breakdown {
			names = append(names, r.Workload)
		}
	case res.Table3 != nil:
		for _, r := range res.Table3 {
			names = append(names, r.Workload)
		}
	case res.Fig9 != nil:
		for _, r := range res.Fig9 {
			names = append(names, r.Workload)
		}
	case res.Fig10 != nil:
		for _, r := range res.Fig10 {
			names = append(names, r.Workload)
		}
	case res.Cells != nil:
		for _, r := range res.Cells {
			names = append(names, r.Workload)
		}
	case res.Attr != nil:
		for _, r := range res.Attr {
			names = append(names, r.Workload)
		}
	case res.Reuse != nil:
		for _, r := range res.Reuse.Rows {
			names = append(names, r.Workload)
		}
	case res.Cycles != nil:
		for _, r := range res.Cycles.Rows {
			names = append(names, r.Workload)
		}
	case res.Diff != nil:
		for _, r := range res.Diff.Rows {
			names = append(names, r.Workload)
		}
	}
	return names
}

// TestRunMapping pins the dispatcher's mapping from a request to the
// workloads it runs — each experiment's default set, an explicit list,
// or an uploaded trace — and its progress totals: every run reports one
// event, and the last event has Done == Total.
func TestRunMapping(t *testing.T) {
	const insts = 2_000
	_, resolve := testUpload(t, insts)
	spec := []string{"bzip2", "crafty", "eon", "gzip", "parser", "twolf", "vortex"}
	desktop := []string{"access", "excel", "lotus", "power", "dream", "photo", "sound"}
	listed := []string{"gzip", "access"}
	noCSE := &DiffSpec{Config: &ConfigOverrides{DisableOpts: []string{"cse"}}}

	for _, tc := range []struct {
		name string
		req  RunRequest
		want []string
	}{
		{"fig6", RunRequest{Experiment: ExpFig6, Workloads: listed}, listed},
		{"fig7 default", RunRequest{Experiment: ExpFig7}, spec},
		{"fig8 default", RunRequest{Experiment: ExpFig8}, desktop},
		{"table3", RunRequest{Experiment: ExpTable3, Workloads: listed}, listed},
		{"fig9", RunRequest{Experiment: ExpFig9, Workloads: listed}, listed},
		{"fig10 ignores the list", RunRequest{Experiment: ExpFig10, Workloads: listed}, sim.Fig10Workloads},
		{"summary", RunRequest{Experiment: ExpSummary, Workloads: listed}, listed},
		{"cell", RunRequest{Experiment: ExpCell, Workloads: listed, Mode: "RP"}, listed},
		{"attr", RunRequest{Experiment: ExpAttr, Workloads: listed}, listed},
		{"reuse", RunRequest{Experiment: ExpReuse, Workloads: listed}, listed},
		{"cycles", RunRequest{Experiment: ExpCycles, Workloads: listed}, listed},
		{"diff", RunRequest{Experiment: ExpDiff, Workloads: listed, Diff: noCSE}, listed},
		{"upload cell", RunRequest{XTrace: "test-upload"}, []string{"upload"}},
		{"upload reuse", RunRequest{Experiment: ExpReuse, XTrace: "test-upload", Workloads: []string{"gzip"}},
			[]string{"gzip", "upload"}},
		{"upload diff", RunRequest{Experiment: ExpDiff, XTrace: "test-upload", Diff: &DiffSpec{Mode: "RP"}},
			[]string{"upload"}},
		{"diff against upload", RunRequest{Experiment: ExpDiff, Workloads: []string{"gzip"},
			Diff: &DiffSpec{XTrace: "test-upload"}}, []string{"gzip"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			req.Insts = insts
			if err := req.Validate(); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var events []Event
			res, err := Run(context.Background(), req, func(e Event) {
				mu.Lock()
				events = append(events, e)
				mu.Unlock()
			}, sim.Options{}, resolve)
			if err != nil {
				t.Fatal(err)
			}
			if got := rowNames(res); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("rows %v, want %v", got, tc.want)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			last := events[len(events)-1]
			if last.Done != last.Total || len(events) != last.Total {
				t.Errorf("%d events, last %d/%d; want Done == Total == events", len(events), last.Done, last.Total)
			}
		})
	}
}

// TestRunUploadNeedsResolver: a request naming an uploaded trace fails
// cleanly without a trace store.
func TestRunUploadNeedsResolver(t *testing.T) {
	_, err := Run(context.Background(), RunRequest{XTrace: "abc"}, nil, sim.Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "abc") {
		t.Errorf("err = %v, want a missing-trace-store error naming the trace", err)
	}
}

// TestBudget: the effective per-trace budget is insts when set, and
// otherwise the largest default among the request's sources.
func TestBudget(t *testing.T) {
	up, resolve := testUpload(t, 3_000)
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	access, err := workload.ByName("access")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  RunRequest
		want int
	}{
		{"insts set", RunRequest{Experiment: ExpFig6, Insts: 5_000}, 5_000},
		{"spec default", RunRequest{Experiment: ExpFig7}, gzip.XInsts},
		{"desktop default", RunRequest{Experiment: ExpFig8}, access.XInsts},
		{"upload", RunRequest{XTrace: "test-upload"}, up.Budget()},
		{"diff against upload", RunRequest{Experiment: ExpDiff, Workloads: []string{"access"},
			Diff: &DiffSpec{XTrace: "test-upload"}}, access.XInsts},
	} {
		got, err := Budget(tc.req, resolve)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: budget %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFigure6Ordering: the paper's headline structural claim on a subset —
// the optimizing configuration outperforms basic rePLay.
func TestFigure6Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res, err := Run(context.Background(),
		RunRequest{Experiment: ExpFig6, Workloads: []string{"vortex"}, Insts: 40_000}, nil, sim.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Fig6[0]
	if r.IPC[3] <= r.IPC[2] {
		t.Errorf("RPO %.2f <= RP %.2f on vortex", r.IPC[3], r.IPC[2])
	}
}

// TestRunKeepsCallerCollectors: experiments that attach their own
// collector (attr, reuse, cycles, diff) add it beside the caller's
// instead of replacing them, so a base event ring still records every
// engine run and exports a valid trace.
func TestRunKeepsCallerCollectors(t *testing.T) {
	for _, exp := range []string{ExpAttr, ExpReuse, ExpCycles, ExpDiff} {
		ring := telemetry.NewRing(1<<16, "", "")
		req := RunRequest{Experiment: exp, Workloads: []string{"gzip"}, Insts: 30_000}
		if exp == ExpDiff {
			req.Diff = &DiffSpec{Config: &ConfigOverrides{DisableOpts: []string{"cse"}}}
		}
		if _, err := Run(context.Background(), req, nil, sim.Options{Probes: []sim.Collector{ring}}, nil); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		var buf bytes.Buffer
		if err := ring.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
			t.Errorf("%s: trace invalid: %v", exp, err)
		}
		if !strings.Contains(buf.String(), `"name":"gzip/RPO/t0"`) || !strings.Contains(buf.String(), `"construct"`) {
			t.Errorf("%s: trace records no gzip/RPO run", exp)
		}
	}
}
