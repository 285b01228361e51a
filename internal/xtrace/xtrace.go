// Package xtrace defines the external micro-op trace format: the
// versioned interchange file that opens the simulator and the replayd
// service to traces produced outside our own IA-32 interpreter.
//
// The record is the Sniper-style lightweight dynamic micro-op: an
// instruction pointer, an operation class (exec, load, store, branch,
// sync), the memory address and access size for memory operations, and
// a taken bit for control transfers. Records are grouped into
// macro-instructions by a first-of-instruction flag, so one x86
// instruction that cracks into three micro-ops occupies three
// consecutive records sharing an EIP.
//
// Two encodings carry the same model:
//
//   - length-prefixed binary ("xuop" magic), compact and fast, the
//     canonical form used for content addressing, and
//   - NDJSON (one JSON object per line, header first), easy to emit
//     from scripts and foreign tools.
//
// A trace that carries its IA-32 code image (the exporter's round-trip
// mode) replays bit-identically: every slot is re-decoded and
// re-translated from the code bytes, exactly like the on-disk
// slot-stream captures. A trace without a code image — the
// bring-your-own-trace case — is adapted by synthesizing a canonical
// micro-op flow per record class, which the pipeline, frame cache, and
// optimizer consume unmodified (the timing model never evaluates
// micro-op values; control divergence is detected by PC comparison).
package xtrace

import (
	"errors"
	"fmt"
)

// FormatVersion is the only format version this package reads/writes.
const FormatVersion = 1

// Magic identifies a binary external uop trace.
var Magic = [4]byte{'x', 'u', 'o', 'p'}

// ArchIA32 marks a trace whose EIPs index an embedded IA-32 code image;
// such traces are re-decoded instead of synthesized. Any other arch
// string is accepted and adapted generically.
const ArchIA32 = "ia32"

// Header flag bits.
const (
	// FlagHasCode marks a trace that embeds its code image (base +
	// bytes) for exact re-decoding.
	FlagHasCode = 1 << 0
	// FlagPadded marks an exported trace that carries slack records
	// beyond the intended instruction budget (so a replayed engine never
	// exhausts the stream mid-run).
	FlagPadded = 1 << 1
)

// Class is the operation class of one micro-op record.
type Class uint8

// Record operation classes.
const (
	ClassExec Class = iota
	ClassLoad
	ClassStore
	ClassBranch
	ClassSync
	numClasses
)

var classNames = [numClasses]string{"exec", "load", "store", "branch", "sync"}

func (c Class) String() string {
	if c < numClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass maps a class name to its Class.
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if s == n {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrBadClass, s)
}

// Record flag bits.
const (
	// RecTaken marks a control transfer that was taken (set on the last
	// record of the transferring instruction).
	RecTaken = 1 << 0
	// RecFirst marks the first micro-op of a macro-instruction. A trace
	// where every record sets it is a plain one-uop-per-instruction
	// stream.
	RecFirst = 1 << 1
	// RecHasAddr marks a record that carries a memory address and size.
	RecHasAddr = 1 << 2
	// RecEOS marks the end-of-stream sentinel: its EIP is the successor
	// of the final instruction (the PC execution would fetch next). It
	// carries no micro-op and is optional.
	RecEOS = 1 << 3
)

// Record is one dynamic micro-op of the external trace.
type Record struct {
	EIP   uint32
	Class Class
	Flags uint8
	Addr  uint32 // valid when Flags&RecHasAddr != 0
	Size  uint8  // memory access size in bytes (0 when no address)
}

// Taken reports the record's taken bit.
func (r Record) Taken() bool { return r.Flags&RecTaken != 0 }

// First reports whether the record begins a macro-instruction.
func (r Record) First() bool { return r.Flags&RecFirst != 0 }

// HasAddr reports whether the record carries a memory address.
func (r Record) HasAddr() bool { return r.Flags&RecHasAddr != 0 }

// Header describes the trace stream that follows it.
type Header struct {
	Version uint32
	// Name labels the trace (workload name for exports; free-form).
	Name string
	// Arch names the ISA the EIPs belong to. ArchIA32 plus FlagHasCode
	// enables exact re-decoding; anything else is adapted generically.
	Arch string
	// Flags is a bitmask of FlagHasCode/FlagPadded.
	Flags uint32
	// UOps is the number of micro-op records in the stream (the EOS
	// sentinel excluded). Zero in hand-written NDJSON means "unknown";
	// binary headers always carry the exact count.
	UOps uint64
	// Insts is the intended x86 instruction budget of the trace: the
	// number of instructions a simulator run should consume (exports pad
	// beyond it, see FlagPadded). Zero means "use the whole stream".
	Insts uint32
}

// HasCode reports whether the trace embeds a code image.
func (h Header) HasCode() bool { return h.Flags&FlagHasCode != 0 }

// Trace is one fully decoded external trace.
type Trace struct {
	Header   Header
	CodeBase uint32
	Code     []byte
	Records  []Record
	// FinalPC is the EOS sentinel's successor PC; HasFinal reports
	// whether the stream carried one.
	FinalPC  uint32
	HasFinal bool
}

// Typed decode failures. Every decoder error wraps exactly one of
// these, so callers can map failures to HTTP statuses or CLI messages
// without string matching.
var (
	// ErrBadMagic reports a stream that is neither binary ("xuop") nor
	// NDJSON xtrace.
	ErrBadMagic = errors.New("xtrace: bad magic (not an external uop trace)")
	// ErrBadVersion reports an unsupported format_version.
	ErrBadVersion = errors.New("xtrace: unsupported format version")
	// ErrBadClass reports an unknown operation class.
	ErrBadClass = errors.New("xtrace: unknown op class")
	// ErrTruncated reports a stream that ended mid-header or mid-record.
	ErrTruncated = errors.New("xtrace: truncated stream")
	// ErrMalformed reports a structurally invalid header or record.
	ErrMalformed = errors.New("xtrace: malformed stream")
	// ErrLimit reports a stream that exceeds a decode limit (record
	// count, stream bytes, record length, or code image size).
	ErrLimit = errors.New("xtrace: stream exceeds decode limit")
	// ErrInconsistent reports a trace whose records contradict their
	// code image (wrong micro-op count for an instruction, EIP outside
	// the image, mid-instruction EIP change).
	ErrInconsistent = errors.New("xtrace: records inconsistent with code image")
)

// Limits bounds a decode; the zero value means DefaultLimits.
type Limits struct {
	// MaxRecords caps the micro-op record count.
	MaxRecords uint64
	// MaxBytes caps the encoded stream size consumed from the reader.
	MaxBytes int64
	// MaxCodeBytes caps the embedded code image.
	MaxCodeBytes int
}

// DefaultLimits are generous offline-tool bounds; servers should set
// tighter ones.
var DefaultLimits = Limits{
	MaxRecords:   64 << 20, // 64M uops
	MaxBytes:     1 << 30,  // 1 GiB encoded
	MaxCodeBytes: 16 << 20, // 16 MiB code image
}

func (l Limits) withDefaults() Limits {
	if l.MaxRecords == 0 {
		l.MaxRecords = DefaultLimits.MaxRecords
	}
	if l.MaxBytes == 0 {
		l.MaxBytes = DefaultLimits.MaxBytes
	}
	if l.MaxCodeBytes == 0 {
		l.MaxCodeBytes = DefaultLimits.MaxCodeBytes
	}
	return l
}

// maxRecLen bounds the length prefix of one binary record: current
// records are at most 11 payload bytes; the slack admits future fields
// while still rejecting garbage prefixes early.
const maxRecLen = 64

// MinRecordBytes is the smallest encoded size of one record in either
// encoding (binary: one length byte plus a 6-byte payload; NDJSON lines
// are larger). It lets callers derive a sound record-count cap from a
// byte budget: a stream of B bytes carries at most B/MinRecordBytes
// records.
const MinRecordBytes = 7

// maxNameLen and maxArchLen bound the header strings.
const (
	maxNameLen = 256
	maxArchLen = 16
)
