package xtrace

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"

	"repro/internal/translate"
	"repro/internal/uop"
)

// FromRecording encodes a recording captured from a program as an
// external trace with an embedded code image, emitting one record per
// micro-op of each slot's flow. name, codeBase and code describe the
// program the recording was decoded from. insts is the intended
// instruction budget (0 means the whole stream is the budget); the
// recording is expected to carry slack beyond it (FlagPadded is set
// when it does). The result round-trips: Recording decodes and
// translates the same code bytes, so it reproduces the capture
// bit-identically.
func FromRecording(name string, codeBase uint32, code []byte, rec *translate.Recording, insts int) *Trace {
	t := &Trace{
		Header: Header{
			Version: FormatVersion,
			Name:    name,
			Arch:    ArchIA32,
			Flags:   FlagHasCode,
		},
		CodeBase: codeBase,
		Code:     code,
	}
	n := rec.Len()
	if insts > 0 && insts <= n {
		t.Header.Insts = uint32(insts)
		if insts < n {
			t.Header.Flags |= FlagPadded
		}
	}
	for i := range n {
		d, nextPC, addrs := rec.At(i)
		taken := nextPC != d.PC+uint32(d.Inst.Len)
		mem := 0
		for ui, u := range d.UOps {
			r := Record{EIP: d.PC, Class: classOf(u.Op)}
			if ui == 0 {
				r.Flags |= RecFirst
			}
			if u.Op.IsMem() && mem < len(addrs) {
				r.Flags |= RecHasAddr
				r.Addr = addrs[mem]
				r.Size = 4
				mem++
			}
			if taken && r.Class == ClassBranch {
				r.Flags |= RecTaken
			}
			t.Records = append(t.Records, r)
		}
	}
	if n > 0 {
		_, t.FinalPC, _ = rec.At(n - 1)
		t.HasFinal = true
	}
	t.Header.UOps = uint64(len(t.Records))
	return t
}

// classOf maps a micro-op opcode to its record class.
func classOf(o uop.Op) Class {
	switch {
	case o == uop.LOAD:
		return ClassLoad
	case o == uop.STORE:
		return ClassStore
	case o == uop.JMP || o == uop.JR || o == uop.BR:
		return ClassBranch
	case o == uop.NOP:
		return ClassSync
	default:
		return ClassExec
	}
}

// WriteBinary writes the trace in the length-prefixed binary encoding.
// This is the canonical form: content addressing hashes these bytes.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(Magic[:]); err != nil {
		return err
	}
	var u32 [4]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	putU32(FormatVersion)
	name := t.Header.Name
	if len(name) > maxNameLen {
		name = name[:maxNameLen]
	}
	arch := t.Header.Arch
	if len(arch) > maxArchLen {
		arch = arch[:maxArchLen]
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(name)))
	bw.Write(u16[:])
	bw.WriteString(name)
	bw.WriteByte(uint8(len(arch)))
	bw.WriteString(arch)
	flags := t.Header.Flags &^ uint32(FlagHasCode)
	if len(t.Code) > 0 {
		flags |= FlagHasCode
	}
	putU32(flags)
	var u64b [8]byte
	binary.LittleEndian.PutUint64(u64b[:], uint64(len(t.Records)))
	bw.Write(u64b[:])
	putU32(t.Header.Insts)
	if flags&FlagHasCode != 0 {
		putU32(t.CodeBase)
		putU32(uint32(len(t.Code)))
		bw.Write(t.Code)
	}
	for i := range t.Records {
		writeBinaryRecord(bw, &t.Records[i])
	}
	if t.HasFinal {
		eos := Record{EIP: t.FinalPC, Class: ClassSync, Flags: RecEOS}
		writeBinaryRecord(bw, &eos)
	}
	return bw.Flush()
}

func writeBinaryRecord(bw *bufio.Writer, r *Record) {
	n := byte(6)
	if r.HasAddr() {
		n = 11
	}
	bw.WriteByte(n)
	bw.WriteByte(r.Flags)
	bw.WriteByte(uint8(r.Class))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], r.EIP)
	bw.Write(u32[:])
	if r.HasAddr() {
		binary.LittleEndian.PutUint32(u32[:], r.Addr)
		bw.Write(u32[:])
		bw.WriteByte(r.Size)
	}
}

// jsonHeader is the NDJSON header line. FlagHasCode is implied by a
// non-empty code field, so hand-written traces never set flag bits.
type jsonHeader struct {
	Magic    string `json:"magic"`
	Version  uint32 `json:"version"`
	Name     string `json:"name,omitempty"`
	Arch     string `json:"arch,omitempty"`
	Flags    uint32 `json:"flags,omitempty"`
	UOps     uint64 `json:"uops,omitempty"`
	Insts    uint32 `json:"insts,omitempty"`
	CodeBase uint32 `json:"code_base,omitempty"`
	Code     string `json:"code,omitempty"` // base64(code image)
}

// jsonRecord is one NDJSON record line. "first" defaults to true when
// omitted, so a hand-written one-line-per-instruction trace needs only
// eip/class (+ addr/size, taken).
type jsonRecord struct {
	EIP   *uint32 `json:"eip"`
	Class string  `json:"class,omitempty"`
	Addr  *uint32 `json:"addr,omitempty"`
	Size  uint8   `json:"size,omitempty"`
	Taken bool    `json:"taken,omitempty"`
	First *bool   `json:"first,omitempty"`
	EOS   bool    `json:"eos,omitempty"`
}

// WriteNDJSON writes the trace in the NDJSON encoding: one header
// object, then one object per record, newline-delimited.
func WriteNDJSON(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := jsonHeader{
		Magic:   "xuop",
		Version: FormatVersion,
		Name:    t.Header.Name,
		Arch:    t.Header.Arch,
		Flags:   t.Header.Flags &^ uint32(FlagHasCode),
		UOps:    uint64(len(t.Records)),
		Insts:   t.Header.Insts,
	}
	if len(t.Code) > 0 {
		h.CodeBase = t.CodeBase
		h.Code = base64.StdEncoding.EncodeToString(t.Code)
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	f := false
	for i := range t.Records {
		r := &t.Records[i]
		jr := jsonRecord{EIP: &r.EIP, Class: r.Class.String(), Size: r.Size, Taken: r.Taken()}
		if r.HasAddr() {
			jr.Addr = &r.Addr
		}
		if !r.First() {
			jr.First = &f
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	if t.HasFinal {
		if err := enc.Encode(jsonRecord{EIP: &t.FinalPC, EOS: true}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CanonicalBytes returns the canonical (binary) encoding of the trace,
// the byte string content addressing hashes.
func CanonicalBytes(t *Trace) []byte {
	var buf bytes.Buffer
	WriteBinary(&buf, t) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}
