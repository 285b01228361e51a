package xtrace

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// limitedReader counts consumed bytes and refuses to read past max,
// letting the decoder distinguish "stream too large" (ErrLimit) from
// "stream ended early" (ErrTruncated).
type limitedReader struct {
	r       io.Reader
	n       int64 // bytes remaining
	clipped bool  // the cap was hit
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.clipped {
		return 0, io.EOF
	}
	if l.n <= 0 {
		// Budget spent. A stream of exactly MaxBytes must still decode,
		// so the cap only counts as hit if another byte actually
		// materializes: probe the source before deciding. A source that
		// errors here instead of reporting EOF (http.MaxBytesReader at
		// its own limit) also means there was more than the budget.
		var probe [1]byte
		n, err := l.r.Read(probe[:])
		if n > 0 || (err != nil && err != io.EOF) {
			l.clipped = true
		}
		return 0, io.EOF
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// eofErr maps an unexpected end of input to the right typed error.
func (l *limitedReader) eofErr(context string) error {
	if l.clipped {
		return fmt.Errorf("%w: %s", ErrLimit, "stream larger than the byte budget")
	}
	return fmt.Errorf("%w: %s", ErrTruncated, context)
}

// Decode reads one external trace in either encoding, auto-detected from
// the first byte ('x' = binary, '{' = NDJSON). The zero Limits value
// means DefaultLimits. Every failure wraps one of the package's typed
// errors; Decode never panics on malformed input.
func Decode(r io.Reader, lim Limits) (*Trace, error) {
	lim = lim.withDefaults()
	lr := &limitedReader{r: r, n: lim.MaxBytes}
	br := bufio.NewReader(lr)
	first, err := br.Peek(1)
	if err != nil {
		return nil, lr.eofErr("empty stream")
	}
	var t *Trace
	switch first[0] {
	case Magic[0]:
		t, err = decodeBinary(br, lr, lim)
	case '{':
		t, err = decodeNDJSON(br, lr, lim)
	default:
		return nil, fmt.Errorf("%w: leading byte %#x", ErrBadMagic, first[0])
	}
	if err != nil {
		return nil, err
	}
	return t, validate(t)
}

// validate applies the cross-record structural rules shared by both
// encodings and normalizes the first-of-instruction convention.
func validate(t *Trace) error {
	if len(t.Records) == 0 {
		return fmt.Errorf("%w: trace has no records", ErrMalformed)
	}
	anyFirst := false
	for i := range t.Records {
		if t.Records[i].First() {
			anyFirst = true
			break
		}
	}
	if !anyFirst {
		// One-uop-per-instruction stream: every record starts one.
		for i := range t.Records {
			t.Records[i].Flags |= RecFirst
		}
	} else if !t.Records[0].First() {
		return fmt.Errorf("%w: record 0 continues an instruction that was never started", ErrMalformed)
	}
	if t.Header.UOps != 0 && t.Header.UOps != uint64(len(t.Records)) {
		return fmt.Errorf("%w: header declares %d uops, stream carries %d",
			ErrMalformed, t.Header.UOps, len(t.Records))
	}
	t.Header.UOps = uint64(len(t.Records))
	if len(t.Code) > 0 {
		t.Header.Flags |= FlagHasCode
	} else if t.Header.HasCode() {
		return fmt.Errorf("%w: has-code flag set but no code image", ErrMalformed)
	}
	return nil
}

func decodeBinary(br *bufio.Reader, lr *limitedReader, lim Limits) (*Trace, error) {
	t, err := decodeBinaryHeader(br, lr, lim)
	if err != nil {
		return nil, err
	}
	if t.Header.HasCode() {
		if t.CodeBase, err = readU32(br, lr, "code base"); err != nil {
			return nil, err
		}
		codeLen, err := readU32(br, lr, "code length")
		if err != nil {
			return nil, err
		}
		if int64(codeLen) > int64(lim.MaxCodeBytes) {
			return nil, fmt.Errorf("%w: code image %d bytes (cap %d)",
				ErrLimit, codeLen, lim.MaxCodeBytes)
		}
		t.Code = make([]byte, codeLen)
		if _, err := io.ReadFull(br, t.Code); err != nil {
			return nil, lr.eofErr("code image")
		}
	}
	if t.Header.UOps > 0 {
		// Preallocate from the header count, but only up to what the
		// remaining byte budget can actually carry: the count is
		// attacker-controlled, and a 40-byte stream declaring 2^26 uops
		// must not command a gigabyte before a single record is read.
		prealloc := t.Header.UOps
		if carry := (uint64(lr.n) + uint64(br.Buffered())) / MinRecordBytes; carry < prealloc {
			prealloc = carry
		}
		t.Records = make([]Record, 0, prealloc)
	}
	var payload [maxRecLen]byte
	for i := uint64(0); ; i++ {
		n, err := br.ReadByte()
		if err == io.EOF && !lr.clipped {
			break // clean end of stream
		}
		if err != nil {
			return nil, lr.eofErr(fmt.Sprintf("record %d length", i))
		}
		if n < 6 || n > maxRecLen {
			return nil, fmt.Errorf("%w: record %d length %d (want 6..%d)",
				ErrMalformed, i, n, maxRecLen)
		}
		p := payload[:n]
		if _, err := io.ReadFull(br, p); err != nil {
			return nil, lr.eofErr(fmt.Sprintf("record %d payload", i))
		}
		r := Record{Flags: p[0], Class: Class(p[1]), EIP: binary.LittleEndian.Uint32(p[2:6])}
		if r.Class >= numClasses {
			return nil, fmt.Errorf("%w: record %d class %d", ErrBadClass, i, uint8(r.Class))
		}
		if r.HasAddr() {
			if n < 11 {
				return nil, fmt.Errorf("%w: record %d has-addr flag with %d-byte payload",
					ErrMalformed, i, n)
			}
			r.Addr = binary.LittleEndian.Uint32(p[6:10])
			r.Size = p[10]
		}
		if r.Flags&RecEOS != 0 {
			if t.HasFinal {
				return nil, fmt.Errorf("%w: record %d is a second end-of-stream sentinel", ErrMalformed, i)
			}
			t.FinalPC, t.HasFinal = r.EIP, true
			continue
		}
		if t.HasFinal {
			return nil, fmt.Errorf("%w: record %d follows the end-of-stream sentinel", ErrMalformed, i)
		}
		if uint64(len(t.Records)) >= lim.MaxRecords {
			return nil, fmt.Errorf("%w: more than %d records", ErrLimit, lim.MaxRecords)
		}
		t.Records = append(t.Records, r)
	}
	return t, nil
}

func readU32(br *bufio.Reader, lr *limitedReader, what string) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return 0, lr.eofErr(what)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// decodeBinaryHeader reads a binary stream's fixed header, up to the
// instruction budget; the code image and the records follow it.
func decodeBinaryHeader(br *bufio.Reader, lr *limitedReader, lim Limits) (*Trace, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, lr.eofErr("header magic")
	}
	if magic != Magic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, magic[:])
	}
	t := &Trace{}
	v, err := readU32(br, lr, "header version")
	if err != nil {
		return nil, err
	}
	if v != FormatVersion {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, FormatVersion)
	}
	t.Header.Version = v
	var u16b [2]byte
	if _, err := io.ReadFull(br, u16b[:]); err != nil {
		return nil, lr.eofErr("name length")
	}
	nameLen := binary.LittleEndian.Uint16(u16b[:])
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("%w: name length %d > %d", ErrMalformed, nameLen, maxNameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, lr.eofErr("name")
	}
	t.Header.Name = string(name)
	archLen, err := br.ReadByte()
	if err != nil {
		return nil, lr.eofErr("arch length")
	}
	if archLen > maxArchLen {
		return nil, fmt.Errorf("%w: arch length %d > %d", ErrMalformed, archLen, maxArchLen)
	}
	arch := make([]byte, archLen)
	if _, err := io.ReadFull(br, arch); err != nil {
		return nil, lr.eofErr("arch")
	}
	t.Header.Arch = string(arch)
	if t.Header.Flags, err = readU32(br, lr, "header flags"); err != nil {
		return nil, err
	}
	var u64b [8]byte
	if _, err := io.ReadFull(br, u64b[:]); err != nil {
		return nil, lr.eofErr("uop count")
	}
	t.Header.UOps = binary.LittleEndian.Uint64(u64b[:])
	if t.Header.UOps > lim.MaxRecords {
		return nil, fmt.Errorf("%w: header declares %d uops (cap %d)",
			ErrLimit, t.Header.UOps, lim.MaxRecords)
	}
	if t.Header.Insts, err = readU32(br, lr, "inst budget"); err != nil {
		return nil, err
	}
	return t, nil
}

// maxLineBytes bounds one NDJSON line. The header line carries the
// base64 code image, so it scales with the code cap; record lines are
// tiny.
func maxLineBytes(lim Limits) int {
	n := lim.MaxCodeBytes/3*4 + 4096
	return n
}

func decodeNDJSON(br *bufio.Reader, lr *limitedReader, lim Limits) (*Trace, error) {
	line, err := readLine(br, lr, maxLineBytes(lim), "header")
	if err != nil {
		return nil, err
	}
	var h jsonHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("%w: header line: %v", ErrMalformed, err)
	}
	if h.Magic != "xuop" {
		return nil, fmt.Errorf("%w: header magic %q", ErrBadMagic, h.Magic)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, h.Version, FormatVersion)
	}
	if len(h.Name) > maxNameLen {
		return nil, fmt.Errorf("%w: name length %d > %d", ErrMalformed, len(h.Name), maxNameLen)
	}
	if len(h.Arch) > maxArchLen {
		return nil, fmt.Errorf("%w: arch length %d > %d", ErrMalformed, len(h.Arch), maxArchLen)
	}
	if h.UOps > lim.MaxRecords {
		return nil, fmt.Errorf("%w: header declares %d uops (cap %d)", ErrLimit, h.UOps, lim.MaxRecords)
	}
	t := &Trace{Header: Header{
		Version: h.Version, Name: h.Name, Arch: h.Arch,
		Flags: h.Flags, UOps: h.UOps, Insts: h.Insts,
	}}
	if h.Code != "" {
		code, err := base64.StdEncoding.DecodeString(h.Code)
		if err != nil {
			return nil, fmt.Errorf("%w: code image base64: %v", ErrMalformed, err)
		}
		if len(code) > lim.MaxCodeBytes {
			return nil, fmt.Errorf("%w: code image %d bytes (cap %d)", ErrLimit, len(code), lim.MaxCodeBytes)
		}
		t.CodeBase, t.Code = h.CodeBase, code
	}
	for i := uint64(0); ; i++ {
		line, err := readLine(br, lr, maxLineBytes(lim), fmt.Sprintf("record %d", i))
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal(line, &jr); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrMalformed, i, err)
		}
		if jr.EIP == nil {
			return nil, fmt.Errorf("%w: record %d has no eip", ErrMalformed, i)
		}
		if jr.EOS {
			if t.HasFinal {
				return nil, fmt.Errorf("%w: record %d is a second end-of-stream sentinel", ErrMalformed, i)
			}
			t.FinalPC, t.HasFinal = *jr.EIP, true
			continue
		}
		if t.HasFinal {
			return nil, fmt.Errorf("%w: record %d follows the end-of-stream sentinel", ErrMalformed, i)
		}
		r := Record{EIP: *jr.EIP}
		if jr.Class != "" {
			c, err := ParseClass(jr.Class)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			r.Class = c
		}
		if jr.Taken {
			r.Flags |= RecTaken
		}
		if jr.First == nil || *jr.First {
			r.Flags |= RecFirst
		}
		if jr.Addr != nil {
			r.Flags |= RecHasAddr
			r.Addr = *jr.Addr
			r.Size = jr.Size // size is meaningful only with an address
			if r.Size == 0 {
				r.Size = 4
			}
		}
		if uint64(len(t.Records)) >= lim.MaxRecords {
			return nil, fmt.Errorf("%w: more than %d records", ErrLimit, lim.MaxRecords)
		}
		t.Records = append(t.Records, r)
	}
	return t, nil
}

// readLine reads one newline-terminated line (the final line may omit
// the newline), accumulating buffer-sized fragments so an overlong line
// fails with ErrLimit as soon as it crosses maxLen instead of after the
// whole line has been buffered. It returns io.EOF only on a clean end
// of input with no bytes read.
func readLine(br *bufio.Reader, lr *limitedReader, maxLen int, what string) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > maxLen {
			return nil, fmt.Errorf("%w: %s line is %d bytes (cap %d)", ErrLimit, what, len(line), maxLen)
		}
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if lr.clipped {
				return nil, lr.eofErr(what)
			}
			if len(line) == 0 {
				return nil, io.EOF
			}
			return line, nil // unterminated final line
		default:
			return nil, fmt.Errorf("%w: %s: %v", ErrMalformed, what, err)
		}
	}
}
