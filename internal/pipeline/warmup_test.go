package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/x86"
)

// walkCounters visits every numeric leaf of a Stats-shaped value.
func walkCounters(v reflect.Value, path string, fn func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkCounters(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkCounters(v.Index(i), path, fn)
		}
	default:
		fn(path, v)
	}
}

// TestResetStatsZeroesEveryCounter is the warmup-leak regression test:
// after a warmup run and ResetStats, with zero further instructions
// retired, every Stats counter — including Mispredicts, FrameFetches,
// FrameAborts and the Opt.* totals — must read zero. The pre-fix code
// baselined only cycles, retirement counts and fetch bins, so warmup
// mispredicts and optimizer activity leaked into the measured window.
func TestResetStatsZeroesEveryCounter(t *testing.T) {
	for _, mode := range []Mode{ModeICache, ModeTraceCache, ModeRePLay, ModeRePLayOpt} {
		// flipEvery=50 forces mispredicts and, in rePLay modes, frame
		// aborts during warmup, so the leak-prone counters are nonzero.
		src := loopStream(t, 2000, 50)
		eng := New(DefaultConfig(mode), mode, src)
		eng.Run(16_000)
		warm := eng.Stats()
		if warm.Mispredicts == 0 {
			t.Fatalf("%v: warmup produced no mispredicts; test stream too tame", mode)
		}
		if mode == ModeRePLay || mode == ModeRePLayOpt {
			if warm.FrameFetches == 0 || warm.FrameAborts == 0 {
				t.Fatalf("%v: warmup produced no frame activity (fetches=%d aborts=%d)",
					mode, warm.FrameFetches, warm.FrameAborts)
			}
		}
		if mode == ModeRePLayOpt && warm.Opt.UOpsIn == 0 {
			t.Fatalf("%v: warmup ran no optimizations", mode)
		}

		eng.ResetStats()
		s := eng.Stats()
		walkCounters(reflect.ValueOf(s), "Stats", func(path string, leaf reflect.Value) {
			var nonzero bool
			switch leaf.Kind() {
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				nonzero = leaf.Uint() != 0
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				nonzero = leaf.Int() != 0
			case reflect.Float32, reflect.Float64:
				nonzero = leaf.Float() != 0
			default:
				t.Errorf("%v: unexpected Stats leaf kind %v at %s", mode, leaf.Kind(), path)
			}
			if nonzero {
				t.Errorf("%v: counter %s = %v after ResetStats, want 0", mode, path, leaf)
			}
		})
	}
}

// TestStatsAddSubRoundTrip: Sub is the exact inverse of Add over every
// counter field, so baselining cannot drift.
func TestStatsAddSubRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fill := func(s *Stats) {
		walkCounters(reflect.ValueOf(s).Elem(), "", func(_ string, leaf reflect.Value) {
			switch leaf.Kind() {
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				leaf.SetUint(uint64(rng.Intn(1 << 30)))
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				leaf.SetInt(int64(rng.Intn(1 << 30)))
			case reflect.Float32, reflect.Float64:
				leaf.SetFloat(float64(rng.Intn(1 << 20)))
			}
		})
	}
	var a, b Stats
	fill(&a)
	fill(&b)
	orig := a
	a.Add(&b)
	if reflect.DeepEqual(a, orig) {
		t.Fatal("Add changed nothing")
	}
	a.Sub(&b)
	if !reflect.DeepEqual(a, orig) {
		t.Errorf("Add then Sub is not the identity:\n got %+v\nwant %+v", a, orig)
	}
}

// TestStoreBufferBounded: the store buffer evicts entries older than the
// forwarding window instead of growing without limit.
func TestStoreBufferBounded(t *testing.T) {
	const stores = 20_000
	s := &sliceStream{}
	pc := uint32(0x1000)
	in := x86.Inst{Op: x86.OpPUSH, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX)}
	enc, err := x86.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stores; i++ {
		sl := slotFor(t, in, pc, 0)
		// A fresh address per store: without eviction the map reaches
		// `stores` entries.
		sl.MemAddrs = []uint32{0x9000_0000 - uint32(4*i)}
		s.slots = append(s.slots, sl)
		pc += uint32(len(enc))
	}
	eng := New(DefaultConfig(ModeICache), ModeICache, s)
	eng.Run(1 << 20)
	if got := eng.storeBuf.n; got >= 4096 {
		t.Errorf("store buffer occupancy %d after %d distinct stores; eviction not working", got, stores)
	}
}

// TestFingerprintDistinguishesConfigs: Config is compared by value, as
// the run memo keys on it: equal configs agree, and edits anywhere in the
// struct (including nested frame and optimizer options) tell them apart.
func TestFingerprintDistinguishesConfigs(t *testing.T) {
	a := DefaultConfig(ModeRePLayOpt)
	b := DefaultConfig(ModeRePLayOpt)
	if a != b {
		t.Error("identical configs compare unequal")
	}
	b.FrameCfg.MaxUOps = 128
	if a == b {
		t.Error("nested frame-config edit not reflected in equality")
	}
	c := DefaultConfig(ModeRePLayOpt)
	c.OptOptions.CSE = false
	if a == c {
		t.Error("nested optimizer-option edit not reflected in equality")
	}
	ic := DefaultConfig(ModeICache)
	if a == ic {
		t.Error("IC and RPO default configs compare equal")
	}
}
