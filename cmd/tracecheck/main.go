// Command tracecheck validates trace files before they reach a viewer
// or a daemon.
//
// Its default mode checks Chrome trace_event JSON as produced by
// replaysim -trace or replayd's /debug/trace endpoint: well-formed
// JSON, every event named and phased, and timestamps non-decreasing
// within each (pid, tid) lane — the shape chrome://tracing and Perfetto
// expect.
//
// -xtrace checks external uop-trace files (tracegen -export, binary or
// NDJSON, auto-detected) instead: header and record validation with the
// same strict decoder replayd applies at upload, plus the slot
// adaptation the simulator performs, so a file that passes here will be
// accepted by POST /v1/traces and replaysim -load. On success it prints
// the trace's content ID and shape.
//
// CI uses both modes to smoke-test the exporters; exit status is
// nonzero on the first invalid file.
//
// Usage:
//
//	tracecheck trace.json [more.json ...]
//	tracecheck -xtrace trace.xut [more.xut ...]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/telemetry"
	"repro/internal/xtrace"
)

func main() {
	xt := flag.Bool("xtrace", false, "validate external uop-trace files instead of Chrome trace_event JSON")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-xtrace] file [more ...]")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		var err error
		if *xt {
			err = checkXTrace(path)
		} else {
			err = checkChrome(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

func checkChrome(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := telemetry.ValidateTrace(data); err != nil {
		return err
	}
	fmt.Printf("%s: ok\n", path)
	return nil
}

func checkXTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := xtrace.Decode(f, xtrace.Limits{})
	if err != nil {
		return err
	}
	rec, err := t.Recording()
	if err != nil {
		return fmt.Errorf("adapting to slots: %w", err)
	}
	code := "synthesized"
	if t.Header.HasCode() {
		code = fmt.Sprintf("%d-byte code image", len(t.Code))
	}
	fmt.Printf("%s: ok: id %s, %d records, %d slots (budget %d), %s\n",
		path, xtrace.TraceID(t), len(t.Records), rec.Len(), t.Header.Insts, code)
	return nil
}
