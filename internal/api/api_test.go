package api

import (
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

// TestRepeatsRejected: the CLI spec grammar has no repeat count (one
// run per side is exact), so a repeats= token is an unknown token, and
// the error names only the key=value tokens that exist.
func TestRepeatsRejected(t *testing.T) {
	_, err := ParseDiffSpec("cse,repeats=3")
	if err == nil {
		t.Fatal("ParseDiffSpec accepted repeats=3")
	}
	_, keys, _ := strings.Cut(err.Error(), "(want")
	for _, want := range []string{"scope=", "mode=", "xtrace="} {
		if !strings.Contains(keys, want) {
			t.Errorf("error %q does not list %s", err, want)
		}
	}
	if strings.Count(keys, "=") != 3 {
		t.Errorf("error %q lists keys beyond scope=, mode= and xtrace=", err)
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
