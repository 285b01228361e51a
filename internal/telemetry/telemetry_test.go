package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestAttributionOrder(t *testing.T) {
	c := NewAttribution()
	p, done := c.Attach("r", 0, nil)
	p.Pass("dce", 5, 0)
	p.Pass("cp", 1, 2)
	done()
	c.RecordPass(2, "cp", 0, 3)
	c.RecordPass(2, "zz-custom", 1, 0)
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

// TestRingFoldOrder: runs reach the ring in fold order, not in the
// order their events happened, and a run that overflows its own buffer
// is counted as if it had wrapped the ring: the ring keeps the newest
// capacity events of the runs concatenated in fold order.
func TestRingFoldOrder(t *testing.T) {
	r := NewRing(4, "", "")
	p0, done0 := r.Attach("w/RPO/t0", 0, nil)
	p1, done1 := r.Attach("w/RPO/t1", 1, nil)
	for i := uint64(0); i < 3; i++ {
		p1.FrameBuilt(100+i, i+1, 0x20, 8)
	}
	for i := uint64(0); i < 10; i++ {
		p0.FrameBuilt(i, i+1, 0x10, 8)
	}
	done0()
	done1()
	done1() // a second fold is a no-op
	events, dropped, runs := r.snapshot()
	if len(runs) != 2 || runs[0] != "w/RPO/t0" || runs[1] != "w/RPO/t1" {
		t.Fatalf("runs = %v, want fold order", runs)
	}
	if dropped != 9 {
		t.Errorf("dropped = %d, want 9 (13 events, capacity 4)", dropped)
	}
	want := []struct {
		pid int
		ts  uint64
	}{{1, 9}, {2, 100}, {2, 101}, {2, 102}}
	if len(events) != len(want) {
		t.Fatalf("ring kept %d events, want %d", len(events), len(want))
	}
	for i, w := range want {
		if events[i].pid != w.pid || events[i].ts != w.ts {
			t.Errorf("event %d = pid %d ts %d, want pid %d ts %d", i, events[i].pid, events[i].ts, w.pid, w.ts)
		}
	}
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
