package trace

import (
	"reflect"
	"testing"
)

func sampleTrace() *Trace {
	t := &Trace{
		Name:     "sample",
		CodeBase: 0x1000,
		Code:     []byte{0x90, 0xB8, 0x05, 0x00, 0x00, 0x00, 0xF4},
	}
	r1 := Record{PC: 0x1000, Len: 1, NextPC: 0x1001}
	r2 := Record{PC: 0x1001, Len: 5, NextPC: 0x1006}
	r2.SetReg(0, 5)
	r2.SetFlagsChanged()
	r2.Flags = 0x44
	r2.MemOps = []MemOp{{Addr: 0x8000, Data: 0x1234, IsStore: true}, {Addr: 0x8000, Data: 0x1234}}
	t.Records = []Record{r1, r2}
	return t
}

func TestRecordHelpers(t *testing.T) {
	var r Record
	r.PC, r.Len, r.NextPC = 0x100, 2, 0x102
	if r.Taken() {
		t.Error("sequential record marked taken")
	}
	r.NextPC = 0x200
	if !r.Taken() {
		t.Error("redirecting record not marked taken")
	}
	r.SetReg(3, 42)
	r.SetReg(5, 43)
	var seen []uint8
	r.ChangedRegs(func(reg uint8, val uint32) {
		seen = append(seen, reg)
		if (reg == 3 && val != 42) || (reg == 5 && val != 43) {
			t.Errorf("reg %d val %d", reg, val)
		}
	})
	if !reflect.DeepEqual(seen, []uint8{3, 5}) {
		t.Errorf("changed regs = %v", seen)
	}
	if r.FlagsChanged() {
		t.Error("flags marked changed")
	}
	r.SetFlagsChanged()
	if !r.FlagsChanged() {
		t.Error("flags not marked changed")
	}
}

func TestComputeStats(t *testing.T) {
	tr := sampleTrace()
	tr.Records[0].NextPC = 0x2000 // make it a taken branch
	s := tr.ComputeStats()
	if s.Insts != 2 || s.Loads != 1 || s.Stores != 1 || s.Branches != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInstBytes(t *testing.T) {
	tr := sampleTrace()
	if b := tr.InstBytes(0x1001); b == nil || b[0] != 0xB8 {
		t.Errorf("InstBytes(0x1001) = %v", b)
	}
	if tr.InstBytes(0x999) != nil {
		t.Error("out-of-range PC returned bytes")
	}
	if tr.InstBytes(0x1000+uint32(len(tr.Code))) != nil {
		t.Error("end-of-code PC returned bytes")
	}
}
