package api

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/translate"
	"repro/internal/x86"
)

// TestValidateConfigRanges: every numeric override outside its range —
// negative, over its ceiling, or a fetch group wider than the window —
// is rejected, while the values the docs and experiments use pass.
func TestValidateConfigRanges(t *testing.T) {
	cell := func(c ConfigOverrides) RunRequest {
		return RunRequest{Experiment: ExpCell, Workloads: []string{"gzip"}, Config: &c}
	}
	bad := map[string]ConfigOverrides{
		"huge width":                 {Width: 1 << 62},
		"negative width":             {Width: -1},
		"width under longest flow":   {Width: 1},
		"negative window_size":       {WindowSize: -512},
		"huge window_size":           {WindowSize: 1 << 40},
		"negative frame_cache_uops":  {FrameCacheUOps: -1},
		"huge frame_cache_uops":      {FrameCacheUOps: 1 << 40},
		"negative max_frame_uops":    {MaxFrameUOps: -8},
		"huge max_frame_uops":        {MaxFrameUOps: 1 << 20},
		"negative opt latency":       {OptCyclesPerUOp: -10},
		"huge opt latency":           {OptCyclesPerUOp: 1 << 40},
		"negative opt_pipe_depth":    {OptPipeDepth: -3},
		"huge opt_pipe_depth":        {OptPipeDepth: 1 << 62},
		"width over window":          {Width: 32, WindowSize: 16},
		"window under default width": {WindowSize: 4},
	}
	for name, c := range bad {
		if err := cell(c).Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, c)
		}
	}
	good := []ConfigOverrides{
		{Width: 8, WindowSize: 512, FrameCacheUOps: 16 << 10, MaxFrameUOps: 256, OptCyclesPerUOp: 10, OptPipeDepth: 3},
		{Width: 5, WindowSize: 5},
		{Width: maxWidth, WindowSize: maxWindowSize, FrameCacheUOps: maxFrameCacheUOps,
			MaxFrameUOps: maxFrameUOps, OptCyclesPerUOp: maxOptCyclesPerUOp, OptPipeDepth: maxOptPipeDepth},
	}
	for n := 8; n <= 256; n *= 2 {
		good = append(good, ConfigOverrides{MaxFrameUOps: n})
	}
	for _, c := range good {
		if err := cell(c).Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
}

// TestRepeatsRange: diff repeats outside 1..maxRepeats are rejected
// through both Validate and the CLI spec grammar; the counts the docs
// use pass.
func TestRepeatsRange(t *testing.T) {
	diff := func(n int) RunRequest {
		return RunRequest{Experiment: ExpDiff, Workloads: []string{"gzip"},
			Diff: &DiffSpec{Config: &ConfigOverrides{DisableOpts: []string{"cse"}}, Repeats: n}}
	}
	for _, n := range []int{-1, maxRepeats + 1, 1_000_000} {
		if err := diff(n).Validate(); err == nil {
			t.Errorf("Validate accepted repeats %d", n)
		}
		if _, err := ParseDiffSpec(fmt.Sprintf("cse,repeats=%d", n)); err == nil {
			t.Errorf("ParseDiffSpec accepted repeats=%d", n)
		}
	}
	for _, n := range []int{2, 3, 5, maxRepeats} {
		if err := diff(n).Validate(); err != nil {
			t.Errorf("repeats %d rejected: %v", n, err)
		}
		d, err := ParseDiffSpec(fmt.Sprintf("cse,repeats=%d", n))
		if err != nil || d.Repeats != n {
			t.Errorf("ParseDiffSpec repeats=%d: %+v, %v", n, d, err)
		}
	}
}

// TestMinWidthFitsLongestFlow: minWidth is the translator's longest
// micro-op flow. Every one- and two-byte opcode with every ModRM byte
// is decoded and translated; none may crack wider, or the ICache path
// of a minWidth machine could never fetch it.
func TestMinWidthFitsLongestFlow(t *testing.T) {
	longest, worst := 0, ""
	buf := []byte(strings.Repeat("\x11", 16))
	try := func() {
		in, err := x86.Decode(buf)
		if err != nil {
			return
		}
		us, err := translate.UOps(in, 0x1000)
		if err == nil && len(us) > longest {
			longest, worst = len(us), in.String()
		}
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			buf[0], buf[1] = byte(a), byte(b)
			if a != 0x0f {
				try()
				continue
			}
			for c := 0; c < 256; c++ {
				buf[2] = byte(c)
				try()
			}
			buf[2] = 0x11
		}
	}
	if longest != minWidth {
		t.Errorf("longest flow is %d micro-ops (%s), minWidth is %d", longest, worst, minWidth)
	}
}
