package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// reschedGolden holds the measured Stats of RPO runs with the Section 4
// position-field rescheduling on: the only configuration in which frames
// issue in a rescheduled order rather than buffer order.
const reschedGolden = "testdata/rescheduled_stats.json"

// TestRescheduledTimingGolden pins the timing of rescheduled RPO runs
// (gzip and excel, 60k instructions each) to Stats recorded from the
// engine that dispatched frames through opt.OptFrame.Iterate. Regenerate
// with -update only for a change meant to alter timing.
func TestRescheduledTimingGolden(t *testing.T) {
	got := make(map[string]pipeline.Stats)
	for _, name := range []string{"gzip", "excel"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunWorkload(context.Background(), p, pipeline.ModeRePLayOpt, sim.Options{
			MaxInsts:  60_000,
			ConfigMod: func(c *pipeline.Config) { c.OptReschedule = true },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.FrameCommits == 0 {
			t.Fatalf("%s: no frame committed; the golden would not exercise the frame path", name)
		}
		got[name] = res.Stats
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(reschedGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reschedGolden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reschedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("rescheduled RPO Stats differ from %s:\ngot:\n%s", reschedGolden, buf)
	}
}
