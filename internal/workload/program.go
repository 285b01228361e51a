package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/trace"
)

// Standard memory layout of generated programs.
const (
	CodeBase  = 0x0040_0000
	DataBase  = 0x1000_0000
	StackTop  = 0x0200_0000
	BiasBase  = 0x1800_0000 // branch-bias driver array
	TableBase = 0x1900_0000 // indirect-call target tables
)

// Segment is a pre-initialized data region of a program.
type Segment struct {
	Addr  uint32
	Bytes []byte
}

// Program is an assembled workload: a code image, its entry point, and
// initialized data.
type Program struct {
	Name  string
	Base  uint32
	Code  []byte
	Entry uint32
	Data  []Segment
}

// NewCPU returns a fresh functional CPU with the program loaded and the
// stack pointer initialized.
func (p *Program) NewCPU() *cpu.CPU {
	mem := cpu.NewMemory()
	mem.WriteBytes(p.Base, p.Code)
	for _, s := range p.Data {
		mem.WriteBytes(s.Addr, s.Bytes)
	}
	c := cpu.New(mem)
	c.PC = p.Entry
	c.SetReg(4, StackTop) // ESP
	return c
}

// Capture executes up to maxInsts x86 instructions and returns the
// resulting trace (the reproduction's analogue of a hardware-captured
// "hot spot" trace file).
func (p *Program) Capture(maxInsts int) (*trace.Trace, error) {
	c := p.NewCPU()
	records, err := c.Run(maxInsts)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	return &trace.Trace{
		Name:     p.Name,
		CodeBase: p.Base,
		Code:     p.Code,
		Records:  records,
	}, nil
}
