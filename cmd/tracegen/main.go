// Command tracegen captures and summarizes workload traces — the
// reproduction's stand-in for the paper's hardware-captured x86 trace
// files — and exports them in the portable external uop-trace format.
//
// Usage:
//
//	tracegen -workload bzip2 [-trace 0] [-insts N]                          summarize a capture
//	tracegen -workload bzip2 [-trace 0] [-insts N] -export file [-format f] export a portable uop trace
//	tracegen -list                                                          list workloads
//
// -export writes the versioned external uop-trace format (see
// internal/xtrace): -format binary (default) or ndjson. Exported files
// replay through replaysim -load or a replayd trace upload with
// bit-identical statistics to the direct run at the same budget;
// tracecheck -xtrace inspects them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/uop"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

func main() {
	name := flag.String("workload", "", "workload profile to capture")
	traceIdx := flag.Int("trace", 0, "hot-spot trace index")
	insts := flag.Int("insts", 0, "x86 instruction budget (default: profile budget)")
	export := flag.String("export", "", "write the portable external uop trace to this file")
	format := flag.String("format", "binary", "external trace encoding: binary or ndjson")
	list := flag.Bool("list", false, "list the workload set (Table 1)")
	flag.Parse()

	if err := run(*name, *traceIdx, *insts, *export, *format, *list); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(name string, traceIdx, insts int, export, format string, list bool) error {
	if list {
		t := stats.NewTable("Name", "Class", "Traces", "Insts/trace")
		for _, p := range workload.Profiles {
			t.Row(p.Name, p.Class, p.Traces, p.XInsts)
		}
		t.Write(os.Stdout)
		return nil
	}
	if name == "" {
		return fmt.Errorf("nothing to do; see -h")
	}
	p, err := workload.ByName(name)
	if err != nil {
		return err
	}
	if insts == 0 {
		insts = p.XInsts
	}
	prog, err := workload.Generate(p, traceIdx)
	if err != nil {
		return err
	}
	if export != "" {
		return exportTrace(prog, insts, export, format)
	}
	return summarize(prog, insts)
}

// exportTrace records the program's retired slots (with replay slack
// past the budget, so loaders can stream the same window the replay
// pipeline sees) and writes them in the external format.
func exportTrace(prog *workload.Program, insts int, path, format string) error {
	var write func(io.Writer, *xtrace.Trace) error
	switch format {
	case "binary":
		write = xtrace.WriteBinary
	case "ndjson":
		write = xtrace.WriteNDJSON
	default:
		return fmt.Errorf("unknown -format %q (want binary or ndjson)", format)
	}
	rec, err := sim.Capture(prog, insts+sim.ReplaySlack)
	if err != nil {
		return err
	}
	xt := xtrace.FromRecording(prog.Name, prog.Base, prog.Code, rec, insts)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, xt); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s format, %d records, %d insts, id %s\n",
		path, format, len(xt.Records), xt.Header.Insts, xtrace.TraceID(xt))
	return nil
}

// summarize captures the program's first insts retired instructions and
// prints their length, PC footprint, micro-op expansion, memory mix and
// taken control transfers.
func summarize(prog *workload.Program, insts int) error {
	rec, err := sim.Capture(prog, insts)
	if err != nil {
		return err
	}
	pcs := make(map[uint32]bool)
	var uops, loads, stores, transfers int
	n := rec.Len()
	for i := range n {
		d, nextPC, _ := rec.At(i)
		pcs[d.PC] = true
		uops += len(d.UOps)
		for _, u := range d.UOps {
			switch u.Op {
			case uop.LOAD:
				loads++
			case uop.STORE:
				stores++
			}
		}
		if nextPC != d.PC+uint32(d.Inst.Len) {
			transfers++
		}
	}
	fmt.Printf("trace %s: code %d bytes at %#x\n", prog.Name, len(prog.Code), prog.Base)
	t := stats.NewTable("Metric", "Value", "Per kinst")
	per := func(v int) string { return fmt.Sprintf("%.1f", 1000*float64(v)/float64(n)) }
	t.Row("x86 instructions", n, "")
	t.Row("unique PCs", len(pcs), "")
	t.Row("micro-ops", uops, per(uops))
	t.Row("loads", loads, per(loads))
	t.Row("stores", stores, per(stores))
	t.Row("taken transfers", transfers, per(transfers))
	t.Write(os.Stdout)
	return nil
}
