package frame

import (
	"errors"
	"testing"

	"repro/internal/trace"
	"repro/internal/x86"
)

// FeedTrace stops at the first record it cannot decode: one outside the
// trace's code image, or one whose image bytes are no instruction.
func TestFeedTraceDecodeErrors(t *testing.T) {
	_, undecodable := x86.Decode([]byte{0xd6})
	if undecodable == nil {
		t.Fatal("0xd6 decodes; the test needs a byte that does not")
	}
	nop := trace.Record{PC: 0x1000, Len: 1, NextPC: 0x1001}
	for _, tc := range []struct {
		name    string
		code    []byte
		pc      uint32
		want    string
		wrapped error
	}{
		{"above the image", []byte{0x90}, 0x1001, "frame: PC 0x1001 outside code image", nil},
		{"below the image", []byte{0x90}, 0xfff, "frame: PC 0xfff outside code image", nil},
		{"undecodable bytes", []byte{0x90, 0xd6}, 0x1001, "frame: decode at 0x1001: " + undecodable.Error(), undecodable},
	} {
		tr := &trace.Trace{
			CodeBase: 0x1000,
			Code:     tc.code,
			Records:  []trace.Record{nop, {PC: tc.pc, Len: 1, NextPC: tc.pc + 1}},
		}
		c, _ := collect(DefaultConfig())
		err := FeedTrace(c, tr)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: FeedTrace = %v, want %q", tc.name, err, tc.want)
			continue
		}
		if tc.wrapped != nil && errors.Unwrap(err).Error() != tc.wrapped.Error() {
			t.Errorf("%s: FeedTrace wraps %v, want the decoder's %v", tc.name, errors.Unwrap(err), tc.wrapped)
		}
	}
}
