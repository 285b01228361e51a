package xtrace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// exportWorkload builds the export tracegen -export writes: trace
// traceIdx of the named profile, captured to budget plus replay slack,
// with budget as the header's instruction count.
func exportWorkload(t *testing.T, name string, traceIdx, budget int) *xtrace.Trace {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, traceIdx)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sim.Capture(prog, budget+sim.ReplaySlack)
	if err != nil {
		t.Fatal(err)
	}
	return xtrace.FromRecording(prog.Name, prog.Base, prog.Code, rec, budget)
}

// slotsOf reads a recording back as engine slots, the form the replay
// stream hands the pipeline.
func slotsOf(rec *translate.Recording) []pipeline.Slot {
	slots := make([]pipeline.Slot, rec.Len())
	for i := range slots {
		d, nextPC, addrs := rec.At(i)
		slots[i] = pipeline.Slot{PC: d.PC, Inst: d.Inst, UOps: d.UOps, NextPC: nextPC, MemAddrs: addrs}
	}
	return slots
}

// The exported bytes are pinned: the content ID (sha256 of the binary
// encoding) and the sha256 of the NDJSON encoding must not move when the
// encoder or the capture behind it is rewritten. A changed value means
// every spooled upload and every published trace ID changes with it.
func TestExportGolden(t *testing.T) {
	const budget = 60_000
	for _, tc := range []struct {
		name   string
		trace  int
		binary string
		ndjson string // "" when not pinned
	}{
		{"gzip", 0,
			"b8296d30311215d7d0be3d34dc0229798cc7ec6f3a1445f501cbd91bf53e4303",
			"614015c1dd810ec924d9a5ae33775236739f9a2880753b55ce200eddf2b3a58d"},
		{"excel", 1,
			"816ebfd8bc3292db9394669903dc1aa26397d25e92898f8c06f681f67dfbc3e9", ""},
	} {
		xt := exportWorkload(t, tc.name, tc.trace, budget)
		if got := xtrace.TraceID(xt); got != tc.binary {
			t.Errorf("%s trace %d: binary content ID %s, want %s", tc.name, tc.trace, got, tc.binary)
		}
		if tc.ndjson == "" {
			continue
		}
		var buf bytes.Buffer
		if err := xtrace.WriteNDJSON(&buf, xt); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.ndjson {
			t.Errorf("%s trace %d: ndjson sha256 %s, want %s", tc.name, tc.trace, got, tc.ndjson)
		}
	}
}

// The synthesis path is pinned too: gzip's 60k capture exported without
// its code image adapts to slots fabricated from the record classes
// alone, and the sha256 of their JSON encoding (every field of every
// slot read back from the recording: PC, instruction, micro-op flow,
// successor, addresses) must not move when the per-PC decode or the
// recording behind it is restructured.
func TestSynthSlotsGolden(t *testing.T) {
	xt := exportWorkload(t, "gzip", 0, 60_000)
	xt.Code, xt.CodeBase = nil, 0
	rec, err := xt.Recording()
	if err != nil {
		t.Fatal(err)
	}
	slots := slotsOf(rec)
	b, err := json.Marshal(slots)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	const want = "8d4416f10b8a6c0f474442a6115ee24bb07badf13053d172daa2082ef4d9060f"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("gzip without code: %d synthesized slots hash %s, want %s", len(slots), got, want)
	}
}
