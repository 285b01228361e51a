package xtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// tinyTrace builds a small synthetic (no code image) trace.
func tinyTrace() *Trace {
	return &Trace{
		Header: Header{Version: FormatVersion, Name: "tiny", Arch: "test"},
		Records: []Record{
			{EIP: 0x1000, Class: ClassExec, Flags: RecFirst},
			{EIP: 0x1002, Class: ClassLoad, Flags: RecFirst | RecHasAddr, Addr: 0x8000, Size: 4},
			{EIP: 0x1005, Class: ClassBranch, Flags: RecFirst | RecTaken},
			{EIP: 0x1000, Class: ClassExec, Flags: RecFirst},
		},
		FinalPC:  0x1002,
		HasFinal: true,
	}
}

func encodeBinary(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := tinyTrace()
	dec, err := Decode(bytes.NewReader(encodeBinary(t, tr)), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header.Name != "tiny" || dec.Header.Arch != "test" {
		t.Errorf("header = %+v", dec.Header)
	}
	if len(dec.Records) != 4 {
		t.Fatalf("decoded %d records, want 4", len(dec.Records))
	}
	if !dec.HasFinal || dec.FinalPC != 0x1002 {
		t.Errorf("final = %v %#x", dec.HasFinal, dec.FinalPC)
	}
	r := dec.Records[1]
	if !r.HasAddr() || r.Addr != 0x8000 || r.Size != 4 || r.Class != ClassLoad {
		t.Errorf("record 1 = %+v", r)
	}
	if !dec.Records[2].Taken() {
		t.Error("record 2 lost its taken bit")
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Records) != 4 || !dec.HasFinal || dec.FinalPC != 0x1002 {
		t.Fatalf("decoded %d records, final %v %#x", len(dec.Records), dec.HasFinal, dec.FinalPC)
	}
	for i := range tr.Records {
		if dec.Records[i] != tr.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, dec.Records[i], tr.Records[i])
		}
	}
}

// Hand-written NDJSON: minimal lines, "first" defaulting, class words.
func TestNDJSONHandWritten(t *testing.T) {
	src := `{"magic":"xuop","version":1,"name":"hand","arch":"arm"}
{"eip":4096,"class":"exec"}
{"eip":4100,"class":"load","addr":32768,"size":8}
{"eip":4104,"class":"branch","taken":true}
{"eip":4096,"eos":true}
`
	dec, err := Decode(strings.NewReader(src), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Records) != 3 {
		t.Fatalf("decoded %d records, want 3", len(dec.Records))
	}
	for i, r := range dec.Records {
		if !r.First() {
			t.Errorf("record %d: first should default to true", i)
		}
	}
	if r := dec.Records[1]; !r.HasAddr() || r.Addr != 32768 || r.Size != 8 {
		t.Errorf("record 1 = %+v", r)
	}
	rec, err := dec.Recording()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 3 {
		t.Fatalf("adapted %d slots, want 3", rec.Len())
	}
	// Non-taken fallthrough fixes Len; NextPC relations must encode the
	// taken bits (slot 2 was taken).
	if d, next, _ := rec.At(0); next != d.PC+uint32(d.Inst.Len) {
		t.Errorf("slot 0 reads as taken: %+v, next %#x", d, next)
	}
	if d, next, _ := rec.At(2); next == d.PC+uint32(d.Inst.Len) {
		t.Errorf("slot 2 lost its taken bit: %+v, next %#x", d, next)
	}
	if _, _, addrs := rec.At(1); len(addrs) != 1 || addrs[0] != 32768 {
		t.Errorf("slot 1 addrs = %v", addrs)
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	good := encodeBinary(t, tinyTrace())

	tests := []struct {
		name string
		in   []byte
		lim  Limits
		want error
	}{
		{"empty", nil, Limits{}, ErrTruncated},
		{"bad magic", []byte("nope"), Limits{}, ErrBadMagic},
		{"bad magic xu", []byte("xu__garbage_____"), Limits{}, ErrBadMagic},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[4:], 99)
			return b
		}(), Limits{}, ErrBadVersion},
		{"truncated header", good[:6], Limits{}, ErrTruncated},
		{"truncated record", good[:len(good)-3], Limits{}, ErrTruncated},
		{"oversize stream", good, Limits{MaxBytes: 16}, ErrLimit},
		{"record cap", good, Limits{MaxRecords: 2}, ErrLimit},
		{"bad class", func() []byte {
			tr := tinyTrace()
			tr.Records[0].Class = 200
			return encodeBinary(t, tr)
		}(), Limits{}, ErrBadClass},
		{"json bad magic", []byte(`{"magic":"nope","version":1}` + "\n"), Limits{}, ErrBadMagic},
		{"json bad version", []byte(`{"magic":"xuop","version":7}` + "\n"), Limits{}, ErrBadVersion},
		{"json bad class", []byte(`{"magic":"xuop","version":1}` + "\n" +
			`{"eip":1,"class":"frobnicate"}` + "\n"), Limits{}, ErrBadClass},
		{"json no eip", []byte(`{"magic":"xuop","version":1}` + "\n" +
			`{"class":"exec"}` + "\n"), Limits{}, ErrMalformed},
		{"json garbage line", []byte(`{"magic":"xuop","version":1}` + "\n" + `{{{` + "\n"), Limits{}, ErrMalformed},
		{"no records", []byte(`{"magic":"xuop","version":1}` + "\n"), Limits{}, ErrMalformed},
		{"record after eos", func() []byte {
			tr := tinyTrace()
			var buf bytes.Buffer
			WriteBinary(&buf, tr)
			b := buf.Bytes()
			// Append one more record after the EOS sentinel.
			return append(b, 6, RecFirst, byte(ClassExec), 0, 0x10, 0, 0)
		}(), Limits{}, ErrMalformed},
		{"uop count mismatch", func() []byte {
			b := append([]byte(nil), good...)
			// UOps u64 lives after magic(4)+ver(4)+nameLen(2)+name(4)+archLen(1)+arch(4)+flags(4).
			off := 4 + 4 + 2 + len("tiny") + 1 + len("test") + 4
			binary.LittleEndian.PutUint64(b[off:], 99)
			return b
		}(), Limits{}, ErrMalformed},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(tc.in), tc.lim)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// A stream of exactly MaxBytes is within the budget and must decode;
// one byte less and the cap is genuinely exceeded.
func TestDecodeExactByteBudget(t *testing.T) {
	for _, enc := range []struct {
		name string
		in   []byte
	}{
		{"binary", encodeBinary(t, tinyTrace())},
		{"ndjson", func() []byte {
			var buf bytes.Buffer
			if err := WriteNDJSON(&buf, tinyTrace()); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}()},
	} {
		t.Run(enc.name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader(enc.in), Limits{MaxBytes: int64(len(enc.in))}); err != nil {
				t.Fatalf("exact-budget stream rejected: %v", err)
			}
			if _, err := Decode(bytes.NewReader(enc.in), Limits{MaxBytes: int64(len(enc.in)) - 1}); !errors.Is(err, ErrLimit) {
				t.Fatalf("over-budget stream: err = %v, want ErrLimit", err)
			}
		})
	}
}

// A header that declares a huge uop count must not command a matching
// preallocation: the byte budget bounds what the stream could possibly
// carry, and so must bound the allocation.
func TestDecodePreallocBounded(t *testing.T) {
	b := encodeBinary(t, tinyTrace())
	// Patch the header count to 8M uops (would be 128 MiB of Records).
	off := 4 + 4 + 2 + len("tiny") + 1 + len("test") + 4
	binary.LittleEndian.PutUint64(b[off:], 8<<20)
	lim := Limits{MaxBytes: 4096, MaxRecords: 16 << 20}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(b), lim)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed (count/stream mismatch)", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decode of a 4 KiB budget allocated %d bytes", alloc)
	}
}

// One overlong NDJSON line is rejected as soon as it crosses the line
// cap, not after the whole line has been buffered.
func TestNDJSONLineCap(t *testing.T) {
	lim := Limits{MaxCodeBytes: 16, MaxBytes: 1 << 20} // line cap ~4 KiB
	line := `{"magic":"xuop","version":1,"pad":"` + strings.Repeat("a", 16<<10) + `"}` + "\n"
	if _, err := Decode(strings.NewReader(line), lim); !errors.Is(err, ErrLimit) {
		t.Fatalf("oversize line: err = %v, want ErrLimit", err)
	}
}

func TestDecodeCodeLimits(t *testing.T) {
	tr := tinyTrace()
	tr.Header.Arch = ArchIA32
	tr.CodeBase = 0x1000
	tr.Code = bytes.Repeat([]byte{0x90}, 1024)
	b := encodeBinary(t, tr)
	if _, err := Decode(bytes.NewReader(b), Limits{MaxCodeBytes: 512, MaxBytes: 1 << 20}); !errors.Is(err, ErrLimit) {
		t.Fatalf("code over cap: err = %v, want ErrLimit", err)
	}
	dec, err := Decode(bytes.NewReader(b), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Header.HasCode() || len(dec.Code) != 1024 || dec.CodeBase != 0x1000 {
		t.Fatalf("code image lost: %+v", dec.Header)
	}
}

// Mid-instruction EIP changes are rejected by the adapter.
func TestGroupsRejectEIPChange(t *testing.T) {
	tr := &Trace{
		Header: Header{Version: FormatVersion},
		Records: []Record{
			{EIP: 0x10, Class: ClassExec, Flags: RecFirst},
			{EIP: 0x14, Class: ClassExec}, // continues 0x10's group
		},
	}
	if _, err := tr.Recording(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// A code-carrying trace whose record grouping disagrees with the
// translation of its code image is rejected, per ErrInconsistent's
// contract, instead of silently running with misaligned MemAddrs.
func TestCodeSlotsInconsistent(t *testing.T) {
	base := Trace{
		Header:   Header{Version: FormatVersion, Arch: ArchIA32, Flags: FlagHasCode},
		CodeBase: 0x1000,
		Code:     []byte{0x90}, // NOP: cracks into exactly one micro-op
	}

	twoRec := base
	twoRec.Records = []Record{
		{EIP: 0x1000, Class: ClassExec, Flags: RecFirst},
		{EIP: 0x1000, Class: ClassExec},
	}
	if _, err := twoRec.Recording(); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("uop count mismatch: err = %v, want ErrInconsistent", err)
	}

	addrRec := base
	addrRec.Records = []Record{
		{EIP: 0x1000, Class: ClassLoad, Flags: RecFirst | RecHasAddr, Addr: 0x8000, Size: 4},
	}
	if _, err := addrRec.Recording(); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("addr count mismatch: err = %v, want ErrInconsistent", err)
	}

	ok := base
	ok.Records = []Record{{EIP: 0x1000, Class: ClassSync, Flags: RecFirst}}
	if _, err := ok.Recording(); err != nil {
		t.Fatalf("consistent trace rejected: %v", err)
	}
}

// A code-carrying trace whose EIP lies outside its code image, or whose
// image bytes at an EIP do not decode, is rejected as ErrInconsistent
// before any slot is built.
func TestCodeSlotsDecodeErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		code []byte
		eip  uint32
		want string
	}{
		{"above the image", []byte{0x90}, 0x1001, "outside code image [0x1000,0x1001)"},
		{"below the image", []byte{0x90}, 0xfff, "outside code image [0x1000,0x1001)"},
		{"undecodable bytes", []byte{0xd6}, 0x1000, "x86: unknown opcode"},
	} {
		tr := Trace{
			Header:   Header{Version: FormatVersion, Arch: ArchIA32, Flags: FlagHasCode},
			CodeBase: 0x1000,
			Code:     tc.code,
			Records:  []Record{{EIP: tc.eip, Class: ClassExec, Flags: RecFirst}},
		}
		rec, err := tr.Recording()
		if !errors.Is(err, ErrInconsistent) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Recording() = %v, err %v; want ErrInconsistent mentioning %q", tc.name, rec, err, tc.want)
		}
	}
}

// Adapting a trace costs memory by its records, not its code image: a
// 16 MB image (the server's upload cap) with one record yields a
// recording far under 1 MB.
func TestRecordingSizedByRecords(t *testing.T) {
	code := bytes.Repeat([]byte{0x90}, 16<<20) // NOPs
	tr := Trace{
		Header:   Header{Version: FormatVersion, Arch: ArchIA32, Flags: FlagHasCode},
		CodeBase: 0x1000,
		Code:     code,
		Records:  []Record{{EIP: 0x1000 + uint32(len(code)) - 1, Class: ClassSync, Flags: RecFirst}},
	}
	rec, err := tr.Recording()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.SizeBytes(); rec.Len() != 1 || got >= 1<<20 {
		t.Errorf("one record over a 16 MB image: %d slots, %d bytes; want 1 slot under 1 MB", rec.Len(), got)
	}
}

// Synthesized decode is per-PC static: repeated visits to an EIP share
// one instruction identity, which frame-cache replay relies on.
func TestSynthDeterministicPerPC(t *testing.T) {
	tr := tinyTrace()
	rec, err := tr.Recording()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 4 {
		t.Fatalf("adapted %d slots, want 4", rec.Len())
	}
	a, _, _ := rec.At(0) // both EIP 0x1000
	b, _, _ := rec.At(3)
	if a.Inst != b.Inst {
		t.Errorf("same PC decoded differently: %+v vs %+v", a.Inst, b.Inst)
	}
	if len(a.UOps) != len(b.UOps) {
		t.Fatalf("uop flows differ in length")
	}
	for i := range a.UOps {
		if a.UOps[i] != b.UOps[i] {
			t.Errorf("uop %d differs: %+v vs %+v", i, a.UOps[i], b.UOps[i])
		}
	}
	// Taken relation: slot 2 (branch, taken) must not read as fallthrough.
	if d, next, _ := rec.At(2); next == d.PC+uint32(d.Inst.Len) {
		t.Errorf("taken branch reads as fallthrough: %+v, next %#x", d, next)
	}
}

func TestTraceIDStable(t *testing.T) {
	a, b := TraceID(tinyTrace()), TraceID(tinyTrace())
	if a != b {
		t.Fatalf("same trace hashed differently: %s vs %s", a, b)
	}
	mut := tinyTrace()
	mut.Records[0].EIP++
	if TraceID(mut) == a {
		t.Fatal("different traces share an ID")
	}
}
