package xtrace_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

// The round-trip differential: exporting a captured workload to the
// external format and re-ingesting it — through either encoding — must
// produce bit-identical pipeline.Stats to the direct interpreter-backed
// run. This is the acceptance bar for the whole subsystem: the external
// front end is observationally equivalent to the native one.
func TestRoundTripBitIdentical(t *testing.T) {
	const budget = 40_000
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}

	// Direct run: interpreter -> capture -> engine.
	direct, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt,
		sim.Options{MaxInsts: budget})
	if err != nil {
		t.Fatal(err)
	}

	// Export: capture budget+slack slots, intended budget in the header.
	xt := exportWorkload(t, "gzip", 0, budget)
	if got := xt.Header.Insts; got != budget {
		t.Fatalf("header insts = %d, want %d", got, budget)
	}

	for _, enc := range []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"binary", func(b *bytes.Buffer) error { return xtrace.WriteBinary(b, xt) }},
		{"ndjson", func(b *bytes.Buffer) error { return xtrace.WriteNDJSON(b, xt) }},
	} {
		t.Run(enc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := enc.write(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := xtrace.Decode(&buf, xtrace.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Header.HasCode() {
				t.Fatal("decoded trace lost its code image")
			}
			rec, err := dec.Recording()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunExternal(context.Background(), sim.ExternalRun{
				Name:        dec.Header.Name,
				Fingerprint: xtrace.TraceID(dec),
				Recording:   rec,
				Insts:       int(dec.Header.Insts),
			}, pipeline.ModeRePLayOpt, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Stats, direct.Stats) {
				t.Errorf("external stats differ from direct run:\n external: %+v\n direct:   %+v",
					res.Stats, direct.Stats)
			}
		})
	}
}

// The adapted recording itself must reproduce the capture exactly, slot
// for slot: same PCs, successors, instructions, micro-op flows, and
// addresses.
func TestAdaptedSlotsMatchCapture(t *testing.T) {
	p, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := sim.Capture(prog, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	xt := xtrace.FromRecording(prog.Name, prog.Base, prog.Code, capture, 0)
	var buf bytes.Buffer
	if err := xtrace.WriteBinary(&buf, xt); err != nil {
		t.Fatal(err)
	}
	dec, err := xtrace.Decode(&buf, xtrace.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := dec.Recording()
	if err != nil {
		t.Fatal(err)
	}
	got, want := slotsOf(rec), slotsOf(capture)
	if len(got) != len(want) {
		t.Fatalf("adapted %d slots, capture has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("slot %d differs:\n got:  %+v\n want: %+v", i, got[i], want[i])
		}
	}
}
