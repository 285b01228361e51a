package opt

import (
	"math/rand"
	"testing"

	"repro/internal/uop"
	"repro/internal/x86"
)

// largestFrame is the largest frame a run can build: the ceiling of the
// max_frame_uops config override.
const largestFrame = 1024

// TestCSETableMatchesMap drives the CSE value-numbering table with the
// get-or-put sequences csePass issues (op index i = 0..n-1 per frame,
// one reset per frame) and checks every answer against a map with
// first-writer-wins semantics, the table csePass used to build.
func TestCSETableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eligible := []uop.Op{uop.ADD, uop.ADC, uop.SUB, uop.SBB, uop.AND, uop.OR, uop.XOR,
		uop.SHL, uop.SHR, uop.SAR, uop.MULLO, uop.MULHIU, uop.MULHIS, uop.LEA, uop.LIMM, uop.SELECT}
	randRef := func() Ref {
		switch rng.Intn(3) {
		case 0:
			return Ref{}
		case 1:
			return liveIn(uop.Reg(rng.Intn(8)))
		}
		return opRef(int32(rng.Intn(largestFrame)))
	}
	randOp := func() FrameOp {
		return FrameOp{Valid: true, Op: eligible[rng.Intn(len(eligible))], Cond: x86.Cond(rng.Intn(4)),
			SrcA: randRef(), SrcB: randRef(), SrcF: randRef(), Imm: int32(rng.Intn(8)) - 2,
			Scale: uint8(rng.Intn(3)), KeepCF: rng.Intn(8) == 0}
	}
	// swapped returns o with its value sources exchanged, when that is a
	// distinct op csePass must still common with o.
	swapped := func(o FrameOp) (FrameOp, bool) {
		if !o.Op.Commutative() || o.HasImmB() || o.SrcA == o.SrcB || o.SrcA.Kind == RefNone {
			return o, false
		}
		o.SrcA, o.SrcB = o.SrcB, o.SrcA
		return o, true
	}

	var tab cseTable
	var hits, swapHits, collisions, fullFrames, smallAfterLarge, wraps int
	for gen := 0; gen < 1000; gen++ {
		n := 1 + rng.Intn(300)
		full := gen%10 == 0
		if full {
			n = largestFrame
		}
		if gen == 500 {
			// Jump to the end of the stamp range so the next resets wrap.
			tab.gen = ^uint32(0) - 2
		}
		before := len(tab.slots)
		tab.reset(n)
		if tab.gen == 1 && gen > 0 && len(tab.slots) == before {
			wraps++
		}
		if int(tab.mask)+1 < len(tab.slots) {
			smallAfterLarge++
		}
		if int(tab.mask)+1 < 2*n {
			t.Fatalf("frame of %d ops got %d slots", n, tab.mask+1)
		}

		ref := map[cseKey]int32{}
		var used []FrameOp
		check := func(o FrameOp, i int32) {
			t.Helper()
			k := cseKeyOf(&o)
			home := &tab.slots[tab.home(&k)]
			if home.gen == tab.gen && home.key != k {
				collisions++
			}
			got, gotOK := tab.lookupOrInsert(&k, i)
			want, wantOK := ref[k]
			if !wantOK {
				want = i
				ref[k] = i
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("frame %d op %d: lookupOrInsert(%+v) = %d, %v; want %d, %v",
					gen, i, k, got, gotOK, want, wantOK)
			}
			if gotOK {
				hits++
			}
		}
		for i := int32(0); i < int32(n); i++ {
			o := randOp()
			if !full && len(used) > 0 {
				switch r := rng.Intn(10); {
				case r < 3: // repeat an earlier op
					o = used[rng.Intn(len(used))]
				case r < 5: // an earlier op with its sources swapped
					if s, ok := swapped(used[rng.Intn(len(used))]); ok {
						o = s
						k := cseKeyOf(&o)
						if _, seen := ref[k]; seen {
							swapHits++
						}
					}
				case r < 6: // a new key sharing an occupied home slot
					c := used[rng.Intn(len(used))]
					k0 := cseKeyOf(&c)
					for try := 0; try < 100_000; try++ {
						c.Imm = rng.Int31()
						if kc := cseKeyOf(&c); tab.home(&kc) == tab.home(&k0) {
							o = c
							break
						}
					}
				}
			}
			check(o, i)
			used = append(used, o)
		}
		if full {
			if len(ref) == largestFrame {
				fullFrames++
			}
			// Every key of a full table still answers with its first index.
			for _, o := range used {
				check(o, int32(n))
			}
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"hits", hits}, {"hits on commutative-swapped keys", swapHits},
		{"probe collisions", collisions}, {"largest-frame tables with every op distinct", fullFrames},
		{"small frames in a larger table", smallAfterLarge}, {"generation wraps", wraps},
	} {
		if c.n == 0 {
			t.Errorf("no %s occurred", c.name)
		}
	}
}
