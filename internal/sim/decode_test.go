package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/pipeline"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/internal/x86"
)

// referenceSlot retires one instruction the way the stream did before
// it kept a decode table: decode and translate the bytes at PC afresh,
// then step through the CPU's own decode cache. ok is false at HLT.
func referenceSlot(t *testing.T, c *cpu.CPU) (pipeline.Slot, bool) {
	t.Helper()
	pc := c.PC
	in, err := x86.Decode(c.Mem.ReadBytes(pc, 15))
	if err != nil {
		t.Fatalf("decode at %#x: %v", pc, err)
	}
	if in.Op == x86.OpHLT {
		return pipeline.Slot{}, false
	}
	us, err := translate.UOps(in, pc)
	if err != nil {
		t.Fatalf("translate at %#x: %v", pc, err)
	}
	addrs, nextPC, err := c.StepAddrs(nil)
	if err != nil {
		t.Fatalf("step at %#x: %v", pc, err)
	}
	return pipeline.Slot{PC: pc, Inst: in, UOps: us, NextPC: nextPC, MemAddrs: addrs}, true
}

// TestDecodeTableEquivalence: on every trace of every profile, the
// table-backed stream yields slot for slot what decoding every retired
// instruction afresh yields.
func TestDecodeTableEquivalence(t *testing.T) {
	const insts = 20_000
	for _, p := range workload.Profiles {
		for tr := 0; tr < p.Traces; tr++ {
			prog, err := workload.Generate(p, tr)
			if err != nil {
				t.Fatal(err)
			}
			s := newCPUStream(prog)
			ref := prog.NewCPU()
			for n := 0; n < insts; n++ {
				want, wok := referenceSlot(t, ref)
				var r pipeline.Rec
				gok := s.NextInto(&r)
				if gok != wok {
					t.Fatalf("%s/t%d slot %d: stream ok=%v, reference ok=%v (err %v)", p.Name, tr, n, gok, wok, s.Err())
				}
				if !wok {
					break
				}
				got := pipeline.Slot{PC: r.PC, Inst: r.Inst, UOps: r.UOps, NextPC: r.NextPC, MemAddrs: r.MemAddrs}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/t%d slot %d:\n got %+v\nwant %+v", p.Name, tr, n, got, want)
				}
			}
		}
	}
}

// Stream benchmarks time the correct-path stream layer alone, without
// the engine: BenchmarkCPUStream interprets (decode, translate, step),
// BenchmarkAheadStream consumes the same interpretation run ahead on a
// producer goroutine (with no engine to overlap, it times the
// interpreter plus the chunk handoff), BenchmarkReplayStream replays a
// recording of the same stream. They run on one SPEC and one desktop profile and
// report per instruction.
var streamBenchProfiles = []string{"gzip", "excel"}

const streamBenchInsts = 100_000

var streamSink uint32

func BenchmarkCPUStream(b *testing.B) {
	for _, name := range streamBenchProfiles {
		prog := benchProgram(b, name)
		b.Run(name, func(b *testing.B) {
			benchStream(b, func() pipeline.Source { return newCPUStream(prog) })
		})
	}
}

func BenchmarkAheadStream(b *testing.B) {
	withParallelism(b, 2) // a free token for the producer
	for _, name := range streamBenchProfiles {
		prog := benchProgram(b, name)
		b.Run(name, func(b *testing.B) {
			benchStream(b, func() pipeline.Source { return startAhead(b, prog) })
		})
	}
}

func BenchmarkReplayStream(b *testing.B) {
	for _, name := range streamBenchProfiles {
		rec := captureRecorded(benchProgram(b, name), streamBenchInsts)
		b.Run(name, func(b *testing.B) {
			benchStream(b, func() pipeline.Source { return &replayStream{rec: rec} })
		})
	}
}

func benchProgram(b *testing.B, name string) *workload.Program {
	p, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.Generate(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// benchStream drains streamBenchInsts records from a fresh stream per
// iteration, filling them in place as the engine does, and reports
// ns/inst and B/inst (heap bytes allocated).
func benchStream(b *testing.B, open func() pipeline.Source) {
	var before, after runtime.MemStats
	var r pipeline.Rec
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := open()
		for n := 0; n < streamBenchInsts; n++ {
			if !s.NextInto(&r) {
				b.Fatalf("stream ended after %d records", n)
			}
			streamSink += r.NextPC
		}
		if a, ok := s.(*aheadStream); ok {
			a.stop()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reportPerInst(b, after.TotalAlloc-before.TotalAlloc)
}

// reportPerInst reports ns/inst and B/inst for b.N iterations of
// streamBenchInsts instructions that allocated alloc heap bytes.
func reportPerInst(b *testing.B, alloc uint64) {
	insts := float64(b.N) * streamBenchInsts
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/insts, "ns/inst")
	b.ReportMetric(float64(alloc)/insts, "B/inst")
}

// BenchmarkEngine times the RPO timing model over a prebuilt recording
// of the same stream, from a fresh engine per iteration, and reports
// ns/inst and B/inst. The replayed stream is included; subtracting
// BenchmarkReplayStream estimates the engine's own cost. The plain
// profile names run RPO; the _RP and _resched variants run RP and RPO
// with position-field rescheduling, so every way a frame enters the
// frame cache is timed, and _IC and _TC run the decoded-path machines.
func BenchmarkEngine(b *testing.B) {
	variants := []struct {
		suffix  string
		mode    pipeline.Mode
		resched bool
	}{
		{"", pipeline.ModeRePLayOpt, false},
		{"_RP", pipeline.ModeRePLay, false},
		{"_resched", pipeline.ModeRePLayOpt, true},
		{"_IC", pipeline.ModeICache, false},
		{"_TC", pipeline.ModeTraceCache, false},
	}
	for _, name := range streamBenchProfiles {
		rec := captureRecorded(benchProgram(b, name), streamBenchInsts+captureSlack)
		for _, v := range variants {
			b.Run(name+v.suffix, func(b *testing.B) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				cfg := pipeline.DefaultConfig(v.mode)
				cfg.OptReschedule = v.resched
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng := pipeline.NewFrom(cfg, v.mode, &replayStream{rec: rec})
					if n := eng.Run(streamBenchInsts); n < streamBenchInsts {
						b.Fatalf("engine retired %d of %d", n, streamBenchInsts)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				reportPerInst(b, after.TotalAlloc-before.TotalAlloc)
			})
		}
	}
}
