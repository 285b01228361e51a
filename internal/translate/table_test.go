package translate

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workload"
	"repro/internal/x86"
)

// runTable retires up to n instructions of prog on the reference CPU,
// decoding each PC into tab on its first visit, and returns the PCs in
// first-visit order.
func runTable(t *testing.T, prog *workload.Program, tab *Table, n int) []uint32 {
	t.Helper()
	c := prog.NewCPU()
	var pcs []uint32
	for k := 0; k < n && !c.Halted; k++ {
		i := tab.Find(c.PC)
		if i < 0 {
			var err error
			if i, err = tab.Decode(c.PC, c.Mem.ReadBytes(c.PC, 15)); err != nil {
				t.Fatalf("decode at %#x: %v", c.PC, err)
			}
			pcs = append(pcs, c.PC)
		}
		e := tab.Entry(i)
		if e.Inst.Op == x86.OpHLT {
			break
		}
		if _, _, err := c.StepInst(&e.Inst, nil); err != nil {
			t.Fatalf("step at %#x: %v", e.PC, err)
		}
	}
	return pcs
}

func generate(t *testing.T, name string, trace int) *workload.Program {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestTableImageRunsStayDense: on every trace of every profile, a run
// over a table sized to the program's code image decodes every PC it
// reaches inside the image, so none takes the fallback map.
func TestTableImageRunsStayDense(t *testing.T) {
	for _, p := range workload.Profiles {
		for tr := 0; tr < p.Traces; tr++ {
			prog, err := workload.Generate(p, tr)
			if err != nil {
				t.Fatal(err)
			}
			tab := NewTable(prog.Base, len(prog.Code))
			runTable(t, prog, tab, 20_000)
			if len(tab.far) != 0 {
				t.Errorf("%s/t%d: %d PCs outside the code image took the fallback map", p.Name, tr, len(tab.far))
			}
		}
	}
}

// TestTableFallback: a PC outside the code image, above it or below its
// base, is decoded into the fallback map and yields the same entry a
// decode at that PC does, and is found again without decoding.
func TestTableFallback(t *testing.T) {
	prog := generate(t, "gzip", 0)
	size := uint32(len(prog.Code))
	if prog.Base < size {
		t.Fatalf("code image at %#x leaves no room below it", prog.Base)
	}
	// The same code at the image and on either side of it.
	below, above := prog.Base-size, prog.Base+size
	mem := cpu.NewMemory()
	for _, at := range []uint32{below, prog.Base, above} {
		mem.WriteBytes(at, prog.Code)
	}
	// The PCs the program retires first.
	var offs []uint32
	for _, pc := range runTable(t, prog, NewTable(prog.Base, len(prog.Code)), 5_000) {
		offs = append(offs, pc-prog.Base)
	}

	tab := NewTable(prog.Base, len(prog.Code))
	for _, off := range offs {
		for _, pc := range []uint32{below + off, prog.Base + off, above + off} {
			i, err := tab.Decode(pc, mem.ReadBytes(pc, 15))
			if err != nil {
				t.Fatalf("decode at %#x: %v", pc, err)
			}
			_, far := tab.far[pc]
			if inImage := pc-prog.Base < size; far == inImage {
				t.Errorf("PC %#x: in fallback map = %v, inside the image = %v", pc, far, inImage)
			}
			in, err := x86.Decode(mem.ReadBytes(pc, 15))
			if err != nil {
				t.Fatal(err)
			}
			us, err := UOps(in, pc)
			if err != nil {
				t.Fatal(err)
			}
			want := Entry{PC: pc, Inst: in, UOps: us}
			if got := *tab.Entry(i); !reflect.DeepEqual(Entry{PC: got.PC, Inst: got.Inst, UOps: got.UOps}, want) || got.ID != i {
				t.Errorf("PC %#x: entry %+v, want %+v", pc, got, want)
			}
			entries := len(tab.entries)
			if j := tab.Find(pc); j != i {
				t.Errorf("PC %#x: found entry %d, decoded %d", pc, j, i)
			}
			if len(tab.entries) != entries {
				t.Errorf("PC %#x: Find added an entry", pc)
			}
		}
	}
	if want := 2 * len(offs); len(tab.far) != want {
		t.Errorf("fallback map holds %d PCs, want %d", len(tab.far), want)
	}
}

// TestTableDecodeErrors: a decoder failure comes back as a
// *DecodeError carrying the decoder's own error and text, and adds no
// entry.
func TestTableDecodeErrors(t *testing.T) {
	tab := NewTable(0x1000, 16)
	for _, code := range [][]byte{nil, {0x0f}, {0xd6}} {
		_, want := x86.Decode(code)
		if want == nil {
			t.Fatalf("% x decodes; the test needs bytes that do not", code)
		}
		i, err := tab.Decode(0x1000, code)
		var de *DecodeError
		if !errors.As(err, &de) || de.Err.Error() != want.Error() || err.Error() != want.Error() {
			t.Errorf("% x: Decode = %d, %v; want a *DecodeError with text %q", code, i, err, want)
		}
		if tab.Find(0x1000) != -1 || len(tab.entries) != 0 {
			t.Errorf("% x: a failed Decode added an entry", code)
		}
	}
}

// TestTableConcurrentReads: recordings share their table read-only
// across concurrent replays, so a built table answers Find and Entry
// from several goroutines at once with the entries one reader sees.
func TestTableConcurrentReads(t *testing.T) {
	prog := generate(t, "excel", 0)
	tab := NewTable(prog.Base, len(prog.Code))
	pcs := runTable(t, prog, tab, 20_000)
	// A PC outside the image, so the fallback map is read too.
	far := prog.Base + uint32(len(prog.Code)) + 0x100
	if _, err := tab.Decode(far, prog.Code[pcs[0]-prog.Base:]); err != nil {
		t.Fatal(err)
	}
	pcs = append(pcs, far)
	want := make([]Entry, len(pcs))
	for k, pc := range pcs {
		want[k] = *tab.Entry(tab.Find(pc))
	}

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for k, pc := range pcs {
					i := tab.Find(pc)
					if i < 0 {
						errs <- fmt.Errorf("PC %#x not found", pc)
						return
					}
					if e := tab.Entry(i); !reflect.DeepEqual(*e, want[k]) {
						errs <- fmt.Errorf("PC %#x: entry %+v, want %+v", pc, *e, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
