package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestParallelTracesBitIdentical: a multi-trace profile run through the
// parallel trace fan-out reports exactly the statistics of the serial
// per-trace loop, for every mode. Stats are integer counters combined
// in trace-index order, so "bit-identical" is literal equality.
func TestParallelTracesBitIdentical(t *testing.T) {
	old := SetParallelism(4)
	defer SetParallelism(old)

	modes := []pipeline.Mode{pipeline.ModeICache, pipeline.ModeTraceCache,
		pipeline.ModeRePLay, pipeline.ModeRePLayOpt}
	for _, name := range []string{"access", "excel"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Traces < 2 {
			t.Fatalf("%s: profile has %d traces, the test needs >= 2", name, p.Traces)
		}
		for _, mode := range modes {
			// DisableCache keeps both computations on the live path (no
			// memo hit can alias them) and is the gate-independent way to
			// force execution.
			o := Options{MaxInsts: 3_000, DisableCache: true}
			budget := o.MaxInsts
			cfg := pipeline.DefaultConfig(mode)

			var serial pipeline.Stats
			src := profileSource(p)
			for tr := 0; tr < p.Traces; tr++ {
				st, _, err := runTrace(context.Background(), &src, mode, cfg, o, budget, 0.4, tr)
				if err != nil {
					t.Fatalf("%s/%s serial trace %d: %v", name, mode, tr, err)
				}
				serial.Add(&st)
			}

			res, err := RunWorkload(context.Background(), p, mode, o)
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", name, mode, err)
			}
			if !reflect.DeepEqual(res.Stats, serial) {
				t.Errorf("%s/%s: parallel stats differ from serial\nparallel: %+v\nserial:   %+v",
					name, mode, res.Stats, serial)
			}
		}
	}
}

// TestParallelRunsSharedMemo: concurrent identical RunWorkload calls
// racing on the run memo (tiny entry budget, so puts and evictions
// interleave) all report the same stats, and the memo stays within its
// bound. Run under -race this also pins the pool and capture-layer
// ownership discipline across concurrently simulating goroutines.
func TestParallelRunsSharedMemo(t *testing.T) {
	ResetCaches()
	t.Cleanup(func() {
		SetMemoLimit(DefaultMemoEntries)
		ResetCaches()
	})
	SetMemoLimit(2)
	old := SetParallelism(4)
	defer SetParallelism(old)

	p, err := workload.ByName("access")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]pipeline.Stats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mode := pipeline.ModeRePLayOpt
			if w%2 == 1 {
				mode = pipeline.ModeRePLay
			}
			r, err := RunWorkload(context.Background(), p, mode, Options{MaxInsts: 2_000})
			results[w], errs[w] = r.Stats, err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 2; w < workers; w++ {
		if !reflect.DeepEqual(results[w], results[w%2]) {
			t.Errorf("worker %d stats differ from worker %d under a shared memo", w, w%2)
		}
	}
	if n, limit := MemoOccupancy(); n > limit {
		t.Errorf("memo occupancy %d exceeds its limit %d", n, limit)
	}
}

// TestParallelTracesCancelMidFanout: cancelling while a multi-trace
// fan-out is in flight aborts every trace promptly and surfaces
// context.Canceled.
func TestParallelTracesCancelMidFanout(t *testing.T) {
	old := SetParallelism(4)
	defer SetParallelism(old)

	p, err := workload.ByName("excel")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = RunWorkload(ctx, p, pipeline.ModeRePLayOpt,
		Options{MaxInsts: 50_000_000, DisableCache: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %s, want prompt return", d)
	}
}

// TestJobsErrorSelection pins the deterministic error reporting of the
// fan-out layers: earliest real failure by index wins; a failure that
// wraps context.Canceled is real and must not be filtered; a bare
// context.Canceled is an induced abort and loses to both a real error
// and the caller's own cancellation.
func TestJobsErrorSelection(t *testing.T) {
	live := context.Background()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	real1 := errors.New("boom")
	wrapped := fmt.Errorf("sim photo trace 1: %w", context.Canceled)

	cases := []struct {
		name   string
		errs   []error
		parent context.Context
		want   error
	}{
		{"no errors", []error{nil, nil}, live, nil},
		{"earliest real error wins", []error{nil, real1, wrapped}, live, real1},
		{"wrapped cancel is a real failure", []error{context.Canceled, wrapped, nil}, live, wrapped},
		{"induced cancel alone surfaces", []error{nil, context.Canceled}, live, context.Canceled},
		{"caller cancellation beats induced", []error{context.Canceled}, canceled, context.Canceled},
		{"real failure beats caller cancellation", []error{wrapped}, canceled, wrapped},
	}
	for _, c := range cases {
		if got := jobsError(c.errs, c.parent); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSetParallelism: the bound is clamped to >= 1 and reported back.
func TestSetParallelism(t *testing.T) {
	old := SetParallelism(3)
	defer SetParallelism(old)
	if got := Parallelism(); got != 3 {
		t.Errorf("Parallelism() = %d, want 3", got)
	}
	if prev := SetParallelism(0); prev != 3 {
		t.Errorf("SetParallelism returned %d, want previous bound 3", prev)
	}
	if got := Parallelism(); got != 1 {
		t.Errorf("Parallelism() after SetParallelism(0) = %d, want clamp to 1", got)
	}
}
