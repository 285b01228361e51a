package xtrace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode drives the streaming decoder with corrupt, truncated, and
// mutated inputs. The invariant is total: Decode either returns a trace
// or a typed error — it never panics, and a successfully decoded trace
// re-encodes and re-decodes to the same record stream. A trace that
// adapts holds a recording bounded by its record count, whatever the
// size of its code image.
func FuzzDecode(f *testing.F) {
	// Valid binary and NDJSON encodings as mutation bases.
	tr := tinyTrace()
	var bin bytes.Buffer
	WriteBinary(&bin, tr)
	f.Add(bin.Bytes())
	var nd bytes.Buffer
	WriteNDJSON(&nd, tr)
	f.Add(nd.Bytes())

	// Corrupt headers.
	f.Add([]byte{})
	f.Add([]byte("x"))
	f.Add([]byte("xuop"))
	f.Add([]byte("xuop\x02\x00\x00\x00"))         // bad version
	f.Add([]byte("xuop\x01\x00\x00\x00\xff\xff")) // oversize name length
	f.Add(bin.Bytes()[:len(bin.Bytes())/2])       // truncated mid-stream
	f.Add(bin.Bytes()[:17])                       // truncated mid-header
	huge := append([]byte(nil), bin.Bytes()...)
	binary.LittleEndian.PutUint64(huge[23:], 1<<60) // absurd uop count
	f.Add(huge)

	// Corrupt records.
	badClass := append([]byte(nil), bin.Bytes()...)
	badClass[len(badClass)-5] = 0xEE
	f.Add(badClass)
	f.Add([]byte(`{"magic":"xuop","version":1}` + "\n" + `{"eip":1,"class":"zap"}`))
	f.Add([]byte(`{"magic":"xuop","version":1}` + "\n" + `not json at all`))
	f.Add([]byte(`{"magic":"xuop","version":1,"code":"!!!"}` + "\n" + `{"eip":1}`))

	// A code image far larger than its one record adapts to a recording
	// the size of the record.
	var big bytes.Buffer
	WriteBinary(&big, &Trace{
		Header:   Header{Version: FormatVersion, Arch: ArchIA32, Flags: FlagHasCode},
		CodeBase: 0x1000,
		Code:     bytes.Repeat([]byte{0x90}, 4096), // NOPs
		Records:  []Record{{EIP: 0x1000, Class: ClassSync, Flags: RecFirst}},
	})
	f.Add(big.Bytes())

	lim := Limits{MaxRecords: 4096, MaxBytes: 1 << 20, MaxCodeBytes: 1 << 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(bytes.NewReader(data), lim)
		if err != nil {
			return
		}
		// Accepted input: it must re-encode and re-decode identically.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, dec); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := Decode(&buf, lim)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again.Records) != len(dec.Records) {
			t.Fatalf("re-decode has %d records, want %d", len(again.Records), len(dec.Records))
		}
		for i := range dec.Records {
			if again.Records[i] != dec.Records[i] {
				t.Fatalf("record %d changed: %+v -> %+v", i, dec.Records[i], again.Records[i])
			}
		}
		// Adapting must not panic either; errors are fine.
		rec, err := dec.Recording()
		if err != nil {
			return
		}
		if got, max := rec.SizeBytes(), recordingBound(len(dec.Records)); got > max {
			t.Fatalf("%d records (%d-byte code image) adapt to %d bytes, bound %d",
				len(dec.Records), len(dec.Code), got, max)
		}
	})
}

// recordingBound is the most a recording adapted from n records may
// hold: per record at most one decode entry (80 bytes, its slice grown
// to twice that), its index and map slot, one micro-op and the columns,
// with room to spare.
func recordingBound(n int) int64 { return 256*int64(n) + 256 }
