package predict

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestGshareLearnsBias(t *testing.T) {
	g := NewGshare(10)
	pc := uint32(0x1234)
	for i := 0; i < 40; i++ {
		g.Update(pc, true)
	}
	if !g.Predict(pc) {
		t.Error("did not learn always-taken")
	}
	for i := 0; i < 40; i++ {
		g.Update(pc, false)
	}
	if g.Predict(pc) {
		t.Error("did not learn always-not-taken")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	// Alternating T/N is captured by global history after warmup.
	g := NewGshare(12)
	pc := uint32(0x4000)
	taken := false
	for i := 0; i < 200; i++ {
		g.Update(pc, taken)
		taken = !taken
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if g.Predict(pc) == taken {
			correct++
		}
		g.Update(pc, taken)
		taken = !taken
	}
	if correct < 95 {
		t.Errorf("alternating pattern accuracy %d/100", correct)
	}
}

// TestGshareCountersSaturate: property — counters stay within [0,3], so
// predictions remain well-defined under arbitrary update sequences.
func TestGshareCountersSaturate(t *testing.T) {
	g := NewGshare(6)
	f := func(pc uint32, taken bool) bool {
		g.Update(pc, taken)
		for _, c := range g.table {
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(512)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("cold BTB hit")
	}
	b.Update(0x1000, 0x2000)
	tgt, ok := b.Lookup(0x1000)
	if !ok || tgt != 0x2000 {
		t.Errorf("lookup = %#x, %v", tgt, ok)
	}
	// Conflicting PC evicts (direct-mapped).
	conflict := uint32(0x1000 + 512*4)
	b.Update(conflict, 0x3000)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("conflicting entry survived")
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	r.Push(0x200)
	if r.Pop() != 0x200 || r.Pop() != 0x100 {
		t.Error("LIFO order wrong")
	}
	// Overflow wraps without panicking.
	for i := 0; i < 10; i++ {
		r.Push(uint32(i))
	}
	if r.Pop() != 9 {
		t.Error("top after overflow wrong")
	}
}

// TestPutGshareClears: a pooled predictor, once taken back, predicts a
// branch sequence exactly as a fresh one does: PutGshare clears its
// history as well as its counters.
func TestPutGshareClears(t *testing.T) {
	run := func(g *Gshare, salt int) []bool {
		var preds []bool
		for i := range 300 {
			pc := uint32((i*salt)%7) * 4
			preds = append(preds, g.Predict(pc))
			g.Update(pc, i%3 != 0 || i == 299)
		}
		return preds
	}
	want := run(&Gshare{bits: 6, mask: 63, table: make([]uint8, 64)}, 1)
	for range 10 {
		g := NewGshare(6)
		run(g, 5) // ends taken, so the history is not zero
		PutGshare(g)
		r := NewGshare(6)
		if r != g {
			continue // the pool dropped it (the race detector drops some puts)
		}
		if got := run(r, 1); !slices.Equal(got, want) {
			t.Fatalf("a recycled predictor predicts %v, a fresh one %v", got, want)
		}
		return
	}
	t.Skip("the pool never handed the predictor back")
}
