package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// startAhead starts a run-ahead stream over prog and fails the test if
// no token was free for its producer.
func startAhead(t testing.TB, prog *workload.Program) *aheadStream {
	t.Helper()
	a, ok := runAhead(newCPUStream(prog)).(*aheadStream)
	if !ok {
		t.Fatal("runAhead ran inline with a free token")
	}
	return a
}

// withParallelism sets the process-wide bound for the test.
func withParallelism(t testing.TB, n int) {
	old := SetParallelism(n)
	t.Cleanup(func() { SetParallelism(old) })
}

// fillStream is the engine's in-place view of a live stream.
type fillStream interface {
	NextInto(*pipeline.Rec) bool
	Err() error
}

// compareStreams drains want and got in step for up to n slots and
// fails at the first slot where they differ, in their fields, their
// end or their error.
func compareStreams(t *testing.T, label string, want, got fillStream, n int) {
	t.Helper()
	var ws, gs pipeline.Rec
	for i := 0; i < n; i++ {
		wok, gok := want.NextInto(&ws), got.NextInto(&gs)
		if wok != gok {
			t.Fatalf("%s slot %d: run-ahead ok=%v, inline ok=%v", label, i, gok, wok)
		}
		if werr, gerr := want.Err(), got.Err(); !reflect.DeepEqual(werr, gerr) {
			t.Fatalf("%s slot %d: run-ahead error %v, inline %v", label, i, gerr, werr)
		}
		if !wok {
			return
		}
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("%s slot %d:\n got %+v\nwant %+v", label, i, gs, ws)
		}
	}
}

// TestAheadStreamEquivalence: on trace 0 of every profile and on every
// trace of excel, the run-ahead stream yields slot for slot what the
// inline interpreter stream does, through a run's budget plus the
// engine's overshoot slack.
func TestAheadStreamEquivalence(t *testing.T) {
	withParallelism(t, 2)
	const n = 30_000 + captureSlack
	for _, p := range workload.Profiles {
		traces := 1
		if p.Name == "excel" {
			traces = p.Traces
		}
		for tr := 0; tr < traces; tr++ {
			prog, err := workload.Generate(p, tr)
			if err != nil {
				t.Fatal(err)
			}
			a := startAhead(t, prog)
			compareStreams(t, p.Name, newCPUStream(prog), a, n)
			a.stop()
		}
	}
}

// loopProgram counts ecx down from iters, then runs tail: 1+2*iters
// slots before the tail's first instruction.
func loopProgram(iters uint32, tail ...byte) *workload.Program {
	code := []byte{0xB9, 0, 0, 0, 0} // mov ecx, iters
	binary.LittleEndian.PutUint32(code[1:], iters)
	code = append(code,
		0x49,       // dec ecx
		0x75, 0xFD, // jnz -3
	)
	code = append(code, tail...)
	const base = 0x1000
	return &workload.Program{Name: "loop", Base: base, Code: code, Entry: base}
}

var (
	tailHalt  = []byte{0xF4}                   // hlt
	tailFault = []byte{0x31, 0xD2, 0xF7, 0xF1} // xor edx, edx; div ecx (ecx is 0)
)

// TestAheadStreamEnds: a program that halts or faults ends the
// run-ahead stream at the inline stream's slot, with its error, across
// a chunk boundary and inside the first chunk.
func TestAheadStreamEnds(t *testing.T) {
	withParallelism(t, 2)
	for _, iters := range []uint32{10, aheadChunk} {
		for name, tail := range map[string][]byte{"halt": tailHalt, "fault": tailFault} {
			prog := loopProgram(iters, tail...)
			a := startAhead(t, prog)
			compareStreams(t, name, newCPUStream(prog), a, 4*aheadChunk)
			a.stop()
			if err := a.Err(); (name == "fault") != (err != nil) {
				t.Errorf("%s after %d iterations: Err() = %v", name, iters, err)
			}
		}
	}
}

// TestAheadStreamErrPositional: the producer meets a fault long before
// the consumer does, but Err reports it only once the consumer reaches
// it, and a run whose budget ends before the fault succeeds.
func TestAheadStreamErrPositional(t *testing.T) {
	withParallelism(t, 2)
	const iters = 1000
	prog := loopProgram(iters, tailFault...)
	const faultAt = 1 + 2*iters + 1 // slots retired before the div faults
	a := startAhead(t, prog)
	var sl pipeline.Rec
	// The whole program fits in the first chunk, so once the first slot
	// arrives the producer has already faulted.
	for i := 0; i < faultAt; i++ {
		if !a.NextInto(&sl) {
			t.Fatalf("stream ended at slot %d, want %d", i, faultAt)
		}
		if err := a.Err(); err != nil {
			t.Fatalf("slot %d: Err() = %v before the fault was consumed", i, err)
		}
	}
	if a.NextInto(&sl) {
		t.Fatalf("slot %d: the faulting instruction retired", faultAt)
	}
	if a.Err() == nil {
		t.Fatal("Err() = nil after the fault was consumed")
	}
	a.stop()

	src := source{name: "loop", traces: 1,
		stream: func(int, int, bool) (slotSource, error) { return runAhead(newCPUStream(prog)), nil }}
	for _, budget := range []int{faultAt / 4, 10 * faultAt} {
		_, _, err := runTrace(context.Background(), &src, pipeline.ModeICache,
			pipeline.DefaultConfig(pipeline.ModeICache), Options{}, budget, 0.4, 0)
		if fails := budget > faultAt; fails != (err != nil) {
			t.Errorf("budget %d, fault at slot %d: run error %v", budget, faultAt, err)
		}
	}
	checkIdle(t)
}

// checkIdle fails unless every semaphore token is free.
func checkIdle(t *testing.T) {
	t.Helper()
	if n := len(acquireSem().ch); n != 0 {
		t.Errorf("%d semaphore tokens still held", n)
	}
}

// goroutinesBack waits until at most n goroutines run.
func goroutinesBack(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAheadStreamStops: stopping mid-stream, with the producer blocked
// on a full queue, and cancelling a live run both end the producer and
// return its token.
func TestAheadStreamStops(t *testing.T) {
	withParallelism(t, 2)
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	a := startAhead(t, prog)
	var sl pipeline.Rec
	for i := 0; i < 3*aheadChunk/2; i++ {
		if !a.NextInto(&sl) {
			t.Fatalf("stream ended at slot %d", i)
		}
	}
	time.Sleep(10 * time.Millisecond) // let the producer fill the queue
	a.stop()
	checkIdle(t)
	goroutinesBack(t, before)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	_, err = RunWorkload(ctx, p, pipeline.ModeRePLayOpt, Options{MaxInsts: 50_000_000, DisableCache: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	checkIdle(t)
	goroutinesBack(t, before)
}

// TestAheadInlineBitIdentical: with every token held the live stream
// runs inline, and every mode's statistics equal the run-ahead run's.
func TestAheadInlineBitIdentical(t *testing.T) {
	withParallelism(t, 2)
	p, err := workload.ByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{MaxInsts: 20_000, DisableCache: true}
	for _, mode := range []pipeline.Mode{
		pipeline.ModeICache, pipeline.ModeTraceCache, pipeline.ModeRePLay, pipeline.ModeRePLayOpt,
	} {
		ahead, err := RunWorkload(context.Background(), p, mode, o)
		if err != nil {
			t.Fatal(err)
		}
		sem := acquireSem()
		for sem.TryAcquire() {
		}
		if _, ok := runAhead(newCPUStream(prog)).(*cpuStream); !ok {
			t.Fatal("runAhead started a producer with every token held")
		}
		inline, err := RunWorkload(context.Background(), p, mode, o)
		for len(sem.ch) > 0 {
			sem.Release()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ahead.Stats, inline.Stats) {
			t.Errorf("%v: run-ahead stats differ from the inline run:\n ahead %+v\ninline %+v",
				mode, ahead.Stats, inline.Stats)
		}
	}
}
