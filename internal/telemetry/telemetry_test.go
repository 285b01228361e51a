package telemetry

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestAttributionOrder(t *testing.T) {
	c := NewAttribution()
	p, done := c.Attach("r", 0, nil)
	p.Pass("dce", 5, 0)
	p.Pass("cp", 1, 2)
	done()
	p2, done2 := c.Attach("r", 1, nil)
	p2.Pass("cp", 0, 3)
	p2.Pass("zz-custom", 1, 0)
	done2()
	snap := c.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("rows: %+v", snap)
	}
	if snap[0].Pass != "cp" || snap[1].Pass != "dce" || snap[2].Pass != "zz-custom" {
		t.Errorf("order: %+v", snap)
	}
	if snap[0].Calls != 2 || snap[0].Killed != 1 || snap[0].Rewritten != 5 {
		t.Errorf("cp row: %+v", snap[0])
	}
}

func TestTraceExportValidates(t *testing.T) {
	r := NewRing(128, "job-key-1", "j-00000001")
	p, done := r.Attach("bzip2/RPO/t0", 0, nil)
	p.FrameBuilt(30, 1, 0x400, 64)
	p.OptRemoved(100, 1, 0x400, 64, 50, 640)
	p.CacheInsert(740, 0x400, 50)
	p.FrameHit(805, 1, 0x400)
	p.AssertFired(840, 1, 0x400, true)
	p.FrameRetired(850, 50, false)
	p.FrameHit(900, 1, 0x400)
	p.FrameRetired(950, 50, true)
	p.TraceFetch(960, 970, 0x480, 12)
	p.Evict(1000, 0x400, 50, 260)
	done()
	// Out-of-order arrival: a second run's early event after run 1's
	// late ones must not break per-track monotonicity.
	p2, done2 := r.Attach("bzip2/RPO/t1", 1, nil)
	p2.FrameBuilt(5, 2, 0x500, 32)
	done2()

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`"job":"job-key-1"`, `"job_id":"j-00000001"`, "bzip2/RPO/t0", "bzip2/RPO/t1",
		"frame-commit", "frame-abort", "assert-fire", "cache-hit", "trace-fetch",
		"cache-evict", `"residency":260`, "process_name", "thread_name",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in trace:\n%s", want, out)
		}
	}
	// The abort span runs from its fetch to its rollback.
	if !strings.Contains(out, `{"name":"frame-abort","cat":"fetch","ph":"X","ts":805,"dur":45`) {
		t.Errorf("frame-abort span not [805, 850):\n%s", out)
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(4, "", "")
	p, done := r.Attach("r", 0, nil)
	for i := uint64(0); i < 10; i++ {
		p.FrameBuilt(i, i+1, 0x10, 8)
	}
	done()
	events, dropped, _ := r.snapshot()
	if len(events) != 4 {
		t.Fatalf("ring kept %d events", len(events))
	}
	if dropped != 6 {
		t.Errorf("dropped = %d", dropped)
	}
	if events[0].ts != 6 || events[3].ts != 9 {
		t.Errorf("ring kept wrong window: %v..%v", events[0].ts, events[3].ts)
	}
}

// TestRingFoldOrder: the ring exports the same bytes and the same
// dropped count whatever order its runs' folds apply in, and its window
// is the newest capacity events of the runs concatenated in name order,
// each numbered by its position. The runs include the same run folded
// twice (one sweep repeating another's run), a variant whose name sorts
// among them, and one that overflowed its own buffer; the ring is small
// enough that runs fall wholly before its window, and it never holds
// more than twice its capacity of events.
func TestRingFoldOrder(t *testing.T) {
	const capacity = 6
	runs := []struct {
		name   string
		start  uint64
		pc     uint32
		events uint64
	}{
		{"w/RPO/t0", 100, 0x10, 10}, // overflows its own buffer
		{"w/RPO/t1", 200, 0x20, 2},
		{"w/RPO/t1", 200, 0x20, 2}, // the same run again
		{"a/RP/t0", 300, 0x40, 1},
		{"w/RPO/no CSE/t1", 400, 0x50, 2},
	}
	type kept struct {
		pid int
		ts  uint64
	}
	// In name order: a/RP/t0 (pid 1), w/RPO/no CSE/t1 (2), w/RPO/t0 (3,
	// its newest 6 events kept by its probe), w/RPO/t1 twice (4, 5).
	wantWindow := []kept{{3, 108}, {3, 109}, {4, 200}, {4, 201}, {5, 200}, {5, 201}}
	export := func(order []int) ([]byte, uint64) {
		t.Helper()
		r := NewRing(capacity, "", "")
		folds := make([]func(), len(runs))
		for i, run := range runs {
			p, done := r.Attach(run.name, 0, nil)
			for k := uint64(0); k < run.events; k++ {
				p.FrameBuilt(run.start+k, k+1, run.pc, 8)
			}
			folds[i] = done
		}
		for _, i := range order {
			folds[i]()
			held := 0
			for _, run := range r.runs {
				held += len(run.events)
			}
			if held >= 2*capacity {
				t.Fatalf("order %v: ring holds %d events, capacity %d", order, held, capacity)
			}
		}
		folds[order[0]]() // a second fold is a no-op
		events, dropped, names := r.snapshot()
		if want := []string{"a/RP/t0", "w/RPO/no CSE/t1", "w/RPO/t0", "w/RPO/t1", "w/RPO/t1"}; !slices.Equal(names, want) {
			t.Fatalf("order %v: runs = %v, want %v", order, names, want)
		}
		var window []kept
		for _, e := range events {
			window = append(window, kept{e.pid, e.ts})
		}
		if !slices.Equal(window, wantWindow) {
			t.Fatalf("order %v: window = %v, want %v", order, window, wantWindow)
		}
		var buf bytes.Buffer
		if err := r.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), dropped
	}
	want, wantDropped := export([]int{0, 1, 2, 3, 4})
	// 17 events seen, 4 of them overwritten in run 0's own buffer.
	if wantDropped != 11 {
		t.Errorf("dropped = %d, want 11 (17 events, capacity 6)", wantDropped)
	}
	if err := ValidateTrace(want); err != nil {
		t.Fatal(err)
	}
	var permute func(order []int, k int)
	permute = func(order []int, k int) {
		if k == len(order) {
			got, dropped := export(order)
			if !bytes.Equal(got, want) || dropped != wantDropped {
				t.Errorf("fold order %v: export differs (dropped %d, want %d)", order, dropped, wantDropped)
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(order, k+1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute([]int{0, 1, 2, 3, 4}, 0)
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{"traceEvents": [}`,
		"empty":         `{"traceEvents": []}`,
		"missing name":  `{"traceEvents": [{"ph":"i","ts":1,"pid":1,"tid":1}]}`,
		"missing ph":    `{"traceEvents": [{"name":"x","ts":1,"pid":1,"tid":1}]}`,
		"missing ts":    `{"traceEvents": [{"name":"x","ph":"i","pid":1,"tid":1}]}`,
		"non-monotonic": `{"traceEvents": [{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"b","ph":"i","ts":4,"pid":1,"tid":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateTrace([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := `{"traceEvents": [{"name":"m","ph":"M","pid":1,"tid":1},{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"b","ph":"i","ts":5,"pid":1,"tid":2}]}`
	if err := ValidateTrace([]byte(ok)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}
