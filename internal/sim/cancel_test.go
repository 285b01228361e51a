package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestRunWorkloadCanceled: a canceled context fails the run with
// context.Canceled instead of burning the budget.
func TestRunWorkloadCanceled(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunWorkload(ctx, p, pipeline.ModeICache, Options{MaxInsts: 10_000})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestRunWorkloadCancelMidRun: cancellation during a live run returns
// promptly, well before a large budget is exhausted.
func TestRunWorkloadCancelMidRun(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// DisableCache keeps the run on the live interpreter path, where the
	// engine's periodic context poll is the only thing that can stop it.
	_, err = RunWorkload(ctx, p, pipeline.ModeICache, Options{MaxInsts: 50_000_000, DisableCache: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %s, want prompt return", d)
	}
}

// TestEngineRunContext: the engine honors cancellation and keeps its
// state consistent for a resumed run.
func TestEngineRunContext(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewFrom(pipeline.DefaultConfig(pipeline.ModeICache), pipeline.ModeICache, newCPUStream(prog))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := eng.RunContext(ctx, 100_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n >= 100_000 {
		t.Errorf("retired %d under a canceled context", n)
	}
	// Resuming with a live context completes normally.
	m, err := eng.RunContext(context.Background(), 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if m < 5_000 {
		t.Errorf("resumed run retired %d, want >= 5000", m)
	}
}

// TestSweepCanceled: runAll-based sweeps surface cancellation as an
// error rather than returning partial rows.
func TestSweepCanceled(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig6(ctx, []workload.Profile{p}, Options{MaxInsts: 5_000}); !errors.Is(err, context.Canceled) {
		t.Errorf("Fig6: got %v, want context.Canceled", err)
	}
	if _, err := Table3(ctx, []workload.Profile{p}, Options{MaxInsts: 5_000}); !errors.Is(err, context.Canceled) {
		t.Errorf("Table3: got %v, want context.Canceled", err)
	}
}

// TestMemoLRUBound: the run memo holds at most its entry budget, evicts
// least-recently-used first, and a hit refreshes recency.
func TestMemoLRUBound(t *testing.T) {
	ResetCaches()
	t.Cleanup(func() {
		SetMemoLimit(DefaultMemoEntries)
		ResetCaches()
	})
	SetMemoLimit(2)

	k := func(i int) memoKey {
		return memoKey{input: inputID{xtrace: "xtrace:p"}, mode: pipeline.ModeICache, budget: i}
	}
	memoPut(k(1), pipeline.Stats{Cycles: 1})
	memoPut(k(2), pipeline.Stats{Cycles: 2})
	if _, ok := memoGet(k(1)); !ok { // refresh 1; 2 becomes LRU
		t.Fatal("entry 1 missing before the budget was reached")
	}
	memoPut(k(3), pipeline.Stats{Cycles: 3}) // must evict 2

	if n, limit := MemoOccupancy(); n != 2 || limit != 2 {
		t.Errorf("occupancy %d/%d, want 2/2", n, limit)
	}
	if _, ok := memoGet(k(2)); ok {
		t.Error("least-recently-used entry 2 survived eviction")
	}
	for _, i := range []int{1, 3} {
		if _, ok := memoGet(k(i)); !ok {
			t.Errorf("recently used entry %d was evicted", i)
		}
	}

	// Shrinking the limit evicts immediately.
	SetMemoLimit(1)
	if n, _ := MemoOccupancy(); n != 1 {
		t.Errorf("occupancy %d after shrinking the limit to 1", n)
	}
}

// TestFingerprintValueStruct guards the run-memo and capture-cache keys:
// every field, nested ones included, must be a bool, number or string.
// A pointer, func, map, slice or interface field would make == compare
// identity (or panic) rather than the inputs' values.
func TestFingerprintValueStruct(t *testing.T) {
	var check func(ty reflect.Type, path string)
	check = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(f.Type, path+"."+f.Name)
			}
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			// value kinds: fine
		default:
			t.Errorf("key field %s has non-value kind %v; the key no longer compares by value", path, ty.Kind())
		}
	}
	check(reflect.TypeOf(memoKey{}), "memoKey")
	check(reflect.TypeOf(captureKey{}), "captureKey")

	// One recording serves every budget it covers, so the capture key
	// names the stream alone (a profile's trace, or an upload's content
	// ID): a budget field would split it again.
	ty := reflect.TypeOf(captureKey{})
	var fields []string
	for i := 0; i < ty.NumField(); i++ {
		fields = append(fields, ty.Field(i).Name)
	}
	if want := []string{"profile", "trace", "upload"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("captureKey fields %v, want %v", fields, want)
	}
}

// TestNaNKnobSkipsCaches: a profile with a NaN knob can never be found
// again under its own key, so its runs bypass the run memo and the
// capture cache instead of leaving entries neither can delete.
func TestNaNKnobSkipsCaches(t *testing.T) {
	ResetCaches()
	t.Cleanup(ResetCaches)
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p.RedALU = math.NaN()
	var first pipeline.Stats
	for i := 0; i < 2; i++ {
		res, err := RunWorkload(context.Background(), p, pipeline.ModeRePLay, Options{MaxInsts: 5_000})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Stats
		} else if res.Stats != first {
			t.Error("repeat run of a NaN-knob profile differs")
		}
	}
	if n, _ := MemoOccupancy(); n != 0 {
		t.Errorf("run memo holds %d entries for a NaN-knob profile", n)
	}
	if n, _, _, _ := CaptureOccupancy(); n != 0 {
		t.Errorf("capture cache holds %d entries for a NaN-knob profile", n)
	}
}

// TestCaptureEntryBudget: the capture cache respects a one-entry budget
// across distinct workloads.
func TestCaptureEntryBudget(t *testing.T) {
	ResetCaches()
	t.Cleanup(func() {
		SetCaptureLimits(DefaultCaptureEntries, DefaultCaptureBytes)
		ResetCaches()
	})
	SetCaptureLimits(1, DefaultCaptureBytes)

	for _, name := range []string{"gzip", "bzip2", "crafty"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunWorkload(context.Background(), p, pipeline.ModeICache, Options{MaxInsts: 2_000}); err != nil {
			t.Fatal(err)
		}
		if n, _, _, _ := CaptureOccupancy(); n > 1 {
			t.Fatalf("after %s: %d live captures under an entry budget of 1", name, n)
		}
	}
}

// TestCaptureByteBudget: an impossible byte budget degrades to cache-of-
// one (the most recent capture is never evicted) instead of thrashing to
// zero.
func TestCaptureByteBudget(t *testing.T) {
	ResetCaches()
	t.Cleanup(func() {
		SetCaptureLimits(DefaultCaptureEntries, DefaultCaptureBytes)
		ResetCaches()
	})
	SetCaptureLimits(8, 1)

	for _, name := range []string{"gzip", "bzip2"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunWorkload(context.Background(), p, pipeline.ModeICache, Options{MaxInsts: 2_000}); err != nil {
			t.Fatal(err)
		}
	}
	n, b, _, _ := CaptureOccupancy()
	if n != 1 {
		t.Errorf("%d live captures under a 1-byte budget, want exactly the most recent", n)
	}
	if b <= 0 {
		t.Errorf("byte accounting reports %d for a live capture", b)
	}
}
