package tracing_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// TestChromeExportValidates lives in the external test package because
// telemetry, whose validator it uses, sits above tracing.
func TestChromeExportValidates(t *testing.T) {
	store := tracing.NewStore(tracing.StoreConfig{})
	tr := tracing.NewTracer(store)
	ctx, root := tr.StartRoot(context.Background(), "POST /v1/run", nil)
	ctx2, sim := tracing.Start(ctx, "sim.run")
	_, pipe := tracing.Start(ctx2, "pipeline.run")
	pipe.End()
	sim.End()
	now := time.Now()
	root.EmitChild("opt.dce", now.Add(-time.Millisecond), now, nil)
	root.End()

	st := store.Get(root.TraceID().String())
	var buf bytes.Buffer
	if err := st.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported Chrome trace invalid: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), st.TraceID) {
		t.Fatal("trace id missing from Chrome export")
	}
}
