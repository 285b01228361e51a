package opt

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/translate"
	"repro/internal/uop"
	"repro/internal/x86"
)

// buildFigure2Frame constructs the paper's running example (Figure 2): the
// crafty procedure fragment of two basic blocks, as a single frame with
// the JZ converted to an assertion and the RET to a target assertion.
//
//	PUSH EBP
//	PUSH EBX
//	MOV  ECX, [ESP+0CH]
//	MOV  EBX, [ESP+10H]
//	XOR  EAX, EAX
//	MOV  EDX, ECX
//	OR   EDX, EBX
//	JZ   Block2          ; biased taken
//	Block2: POP EBX
//	POP  EBP
//	RET                  ; stable return target
func buildFigure2Frame(t *testing.T) *frame.Frame {
	t.Helper()
	insts := []x86.Inst{
		{Op: x86.OpPUSH, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBP)},
		{Op: x86.OpPUSH, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX)},
		{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.ECX), Src: x86.Mem(x86.ESP, 0x0C)},
		{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX), Src: x86.Mem(x86.ESP, 0x10)},
		{Op: x86.OpXOR, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.RegOp(x86.EAX)},
		{Op: x86.OpMOV, Cond: x86.CondNone, Dst: x86.RegOp(x86.EDX), Src: x86.RegOp(x86.ECX)},
		{Op: x86.OpOR, Cond: x86.CondNone, Dst: x86.RegOp(x86.EDX), Src: x86.RegOp(x86.EBX)},
		{Op: x86.OpJCC, Cond: x86.CondE, Dst: x86.ImmOp(3)},                             // jumps over the ADD; typically taken
		{Op: x86.OpADD, Cond: x86.CondNone, Dst: x86.RegOp(x86.EAX), Src: x86.ImmOp(1)}, // rare path, skipped
		{Op: x86.OpPOP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBX)},
		{Op: x86.OpPOP, Cond: x86.CondNone, Dst: x86.RegOp(x86.EBP)},
		{Op: x86.OpRET, Cond: x86.CondNone},
	}
	const skipped = 8 // index of the rare-path ADD
	// Lay out at 0x1000 with computed lengths.
	pc := uint32(0x1000)
	pcs := make([]uint32, len(insts))
	for i := range insts {
		enc, err := x86.Encode(insts[i])
		if err != nil {
			t.Fatal(err)
		}
		insts[i].Len = len(enc)
		pcs[i] = pc
		pc += uint32(len(enc))
	}

	// Dynamic execution context: entry ESP = S with return address K and
	// two zero arguments on the stack.
	const S = uint32(0x0008_0000)
	const K = uint32(0x0000_4000)

	cfg := frame.DefaultConfig()
	cfg.BiasThreshold = 1
	cfg.TargetThreshold = 1
	var frames []*frame.Frame
	c := frame.NewConstructor(cfg, func(f *frame.Frame) { frames = append(frames, f) })
	tab := translate.NewTable(0, 0)

	esp := S
	for i, in := range insts {
		if i == skipped {
			continue // the rare path does not retire
		}
		uops, err := translate.UOps(in, pcs[i])
		if err != nil {
			t.Fatal(err)
		}
		next := pcs[i] + uint32(in.Len)
		var addrs []uint32
		switch i {
		case 0: // PUSH EBP
			addrs = []uint32{esp - 4}
			esp -= 4
		case 1: // PUSH EBX
			addrs = []uint32{esp - 4}
			esp -= 4
		case 2:
			addrs = []uint32{esp + 0x0C}
		case 3:
			addrs = []uint32{esp + 0x10}
		case 7: // JZ taken over the rare path
			next = in.TargetPC(pcs[i])
		case 9, 10: // POPs
			addrs = []uint32{esp}
			esp += 4
		case 11: // RET
			addrs = []uint32{esp}
			esp += 4
			next = K
		}
		c.Retire(tab.Entry(tab.Add(translate.Entry{PC: pcs[i], Inst: in, UOps: uops})), next, addrs)
	}
	c.Flush()

	if len(frames) != 1 {
		t.Fatalf("expected 1 frame, got %d", len(frames))
	}
	return frames[0]
}

// figure2Entry builds the architectural entry state of the fragment.
func figure2Entry() (*uop.Regs, uop.MapMemory) {
	const S = uint32(0x0008_0000)
	const K = uint32(0x0000_4000)
	regs := &uop.Regs{}
	regs.Set(uop.ESP, S)
	regs.Set(uop.EBP, 0xAAAA)
	regs.Set(uop.EBX, 0xBBBB)
	regs.Set(uop.EAX, 0x1111)
	mem := uop.MapMemory{S: K, S + 4: 0, S + 8: 0}
	return regs, mem
}

func executeAndCheck(t *testing.T, of *OptFrame, label string) ExecResult {
	t.Helper()
	regs, mem := figure2Entry()
	res, err := Execute(of, regs, mem)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Aborted {
		t.Fatalf("%s: unexpected abort at op %d", label, res.AbortPos)
	}
	const S = uint32(0x0008_0000)
	want := map[uop.Reg]uint32{
		uop.EAX: 0,      // XOR EAX,EAX
		uop.ECX: 0,      // zero argument
		uop.EDX: 0,      // OR of zero args
		uop.EBX: 0xBBBB, // restored by POP
		uop.EBP: 0xAAAA, // restored by POP
		uop.ESP: S + 4,  // net of pushes/pops/ret
	}
	for r, v := range want {
		if got := res.Regs.Get(r); got != v {
			t.Errorf("%s: %s = %#x, want %#x", label, r, got, v)
		}
	}
	// Stores are never removed: both saves must appear, in order.
	if len(res.Stores) != 2 ||
		res.Stores[0] != (MemWrite{Addr: S - 4, Val: 0xAAAA}) ||
		res.Stores[1] != (MemWrite{Addr: S - 8, Val: 0xBBBB}) {
		t.Errorf("%s: stores = %+v", label, res.Stores)
	}
	return res
}

// TestFigure2UnoptimizedCount: the fragment decodes to exactly the
// paper's 17 micro-operations with 5 loads.
func TestFigure2UnoptimizedCount(t *testing.T) {
	f := buildFigure2Frame(t)
	if got := len(f.UOps); got != 17 {
		for _, u := range f.UOps {
			t.Logf("  %s", u)
		}
		t.Fatalf("unoptimized uops = %d, want 17", got)
	}
	if got := f.NumLoads(); got != 5 {
		t.Fatalf("unoptimized loads = %d, want 5", got)
	}
	of := Remap(f, ScopeFrame)
	executeAndCheck(t, of, "unoptimized")
}

// TestFigure2Scopes reproduces the paper's scope comparison: 13 micro-ops
// intra-block, 12 inter-block, 10 at frame level (Figure 2 columns 3-5).
func TestFigure2Scopes(t *testing.T) {
	cases := []struct {
		scope     Scope
		wantUOps  int
		wantLoads int
	}{
		{ScopeIntraBlock, 13, 5},
		{ScopeInterBlock, 12, 4},
		{ScopeFrame, 10, 3},
	}
	for _, tt := range cases {
		t.Run(tt.scope.String(), func(t *testing.T) {
			f := buildFigure2Frame(t)
			of := Remap(f, tt.scope)
			s := Optimize(of, AllOptions())
			if got := of.NumValid(); got != tt.wantUOps {
				for i := range of.Ops {
					if of.Ops[i].Valid {
						t.Logf("  %2d %s", i, &of.Ops[i])
					}
				}
				t.Errorf("uops = %d, want %d (stats %+v)", got, tt.wantUOps, s)
			}
			if got := of.NumValidLoads(); got != tt.wantLoads {
				t.Errorf("loads = %d, want %d", got, tt.wantLoads)
			}
			executeAndCheck(t, of, tt.scope.String())
		})
	}
}

// TestFigure2TwoAddressFusion: the MOV EDX,ECX / OR EDX,EBX pair must
// fuse into a three-operand OR (micro-op 09' in the paper).
func TestFigure2TwoAddressFusion(t *testing.T) {
	f := buildFigure2Frame(t)
	of := Remap(f, ScopeFrame)
	Optimize(of, AllOptions())
	var or *FrameOp
	for i := range of.Ops {
		if of.Ops[i].Valid && of.Ops[i].Op == uop.OR {
			or = &of.Ops[i]
		}
	}
	if or == nil {
		t.Fatal("OR not found")
	}
	// Its first operand must reference ECX's producer (the parameter
	// load), not a surviving MOV.
	if or.SrcA.Kind != RefOp || of.Ops[or.SrcA.Idx].Op != uop.LOAD {
		t.Errorf("OR srcA = %s (op %v)", or.SrcA, of.Ops[or.SrcA.Idx].Op)
	}
}

// TestDCEKeepsStores: stores must never be removed even when dead.
func TestDCEKeepsStores(t *testing.T) {
	f := buildFigure2Frame(t)
	of := Remap(f, ScopeFrame)
	Optimize(of, AllOptions())
	stores := 0
	for i := range of.Ops {
		if of.Ops[i].Valid && of.Ops[i].Op == uop.STORE {
			stores++
		}
	}
	if stores != 2 {
		t.Errorf("stores = %d, want 2", stores)
	}
}

// TestOptimizeIdempotent: optimizing twice changes nothing further.
func TestOptimizeIdempotent(t *testing.T) {
	f := buildFigure2Frame(t)
	of := Remap(f, ScopeFrame)
	Optimize(of, AllOptions())
	n1 := of.NumValid()
	s := Optimize(of, AllOptions())
	if of.NumValid() != n1 || s.Removed() != 0 {
		t.Errorf("second optimization changed the frame: %+v", s)
	}
}

// TestDisabledPasses: with everything off except DCE, only truly dead ops
// disappear and the structure survives.
func TestDisabledPasses(t *testing.T) {
	f := buildFigure2Frame(t)
	of := Remap(f, ScopeFrame)
	s := Optimize(of, Options{})
	// Without copy propagation the MOV chain keeps everything alive
	// except nothing — the only dead op in the raw fragment is none.
	if of.NumValid() < 15 {
		t.Errorf("bare DCE removed too much: %d valid (stats %+v)", of.NumValid(), s)
	}
	executeAndCheck(t, of, "dce-only")
}

// TestNoSFLeavesLoads: disabling store forwarding must keep the POP loads.
func TestNoSFLeavesLoads(t *testing.T) {
	f := buildFigure2Frame(t)
	of := Remap(f, ScopeFrame)
	opts := AllOptions()
	opts.SF = false
	Optimize(of, opts)
	if got := of.NumValidLoads(); got != 5 {
		t.Errorf("loads with SF disabled = %d, want 5", got)
	}
	executeAndCheck(t, of, "no-sf")
}

// TestSpeculativeForwarding: a store through an unknown pointer between a
// store/load pair is speculated past (profile says no alias) and marked
// unsafe; at runtime an aliasing pointer aborts the frame.
func TestSpeculativeForwarding(t *testing.T) {
	// Build a tiny synthetic frame by hand:
	//   STORE [EBP-4] <- EAX        (profiled addr 0x7000-4)
	//   STORE [EDI]   <- ECX        (profiled addr 0x9000; may alias)
	//   LOAD  EDX <- [EBP-4]        (profiled addr 0x7000-4)
	f := &frame.Frame{
		StartPC: 0x100, ExitPC: 0x200, NumX86: 3,
		UOps: []uop.UOp{
			{Op: uop.STORE, SrcA: uop.EBP, SrcB: uop.EAX, Imm: -4},
			{Op: uop.STORE, SrcA: uop.EDI, SrcB: uop.ECX, Imm: 0},
			{Op: uop.LOAD, Dest: uop.EDX, SrcA: uop.EBP, SrcB: uop.RegNone, Imm: -4},
		},
		InstIdx: []int32{0, 1, 2},
		MemSub:  []int8{0, 0, 0},
		MemAddr: []uint32{0x7000 - 4, 0x9000, 0x7000 - 4},
		PCs:     []uint32{0x100, 0x110, 0x120},
		NextPCs: []uint32{0x110, 0x120, 0x200},
	}
	// Pad to the frame minimum with NOP-like ALU ops so the constructor
	// invariants don't matter here (we remap directly).
	of := Remap(f, ScopeFrame)
	s := Optimize(of, AllOptions())
	if s.SFLoads != 1 {
		t.Fatalf("SF loads = %d, want 1 (stats %+v)", s.SFLoads, s)
	}
	if s.UnsafeStores != 1 {
		t.Fatalf("unsafe stores = %d", s.UnsafeStores)
	}
	if !of.Ops[1].Unsafe {
		t.Fatal("intervening store not marked unsafe")
	}

	// Non-aliasing execution: EDX gets EAX's value, no abort.
	regs := &uop.Regs{}
	regs.Set(uop.EBP, 0x7000)
	regs.Set(uop.EDI, 0x9000)
	regs.Set(uop.EAX, 0x42)
	regs.Set(uop.ECX, 0x99)
	res, err := Execute(of, regs, uop.MapMemory{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("non-aliasing execution aborted")
	}
	if res.Regs.Get(uop.EDX) != 0x42 {
		t.Errorf("forwarded value = %#x", res.Regs.Get(uop.EDX))
	}

	// Aliasing execution: EDI points at EBP-4 -> unsafe conflict abort.
	regs2 := &uop.Regs{}
	regs2.Set(uop.EBP, 0x7000)
	regs2.Set(uop.EDI, 0x7000-4)
	res, err = Execute(of, regs2, uop.MapMemory{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || !res.UnsafeConflict {
		t.Errorf("aliasing execution did not abort: %+v", res)
	}
}

// TestConservativeNoSpeculation: with speculation off, the unknown store
// blocks forwarding.
func TestConservativeNoSpeculation(t *testing.T) {
	f := &frame.Frame{
		StartPC: 0x100, ExitPC: 0x200, NumX86: 3,
		UOps: []uop.UOp{
			{Op: uop.STORE, SrcA: uop.EBP, SrcB: uop.EAX, Imm: -4},
			{Op: uop.STORE, SrcA: uop.EDI, SrcB: uop.ECX, Imm: 0},
			{Op: uop.LOAD, Dest: uop.EDX, SrcA: uop.EBP, SrcB: uop.RegNone, Imm: -4},
		},
		InstIdx: []int32{0, 1, 2},
		MemSub:  []int8{0, 0, 0},
		MemAddr: []uint32{0x6FFC, 0x9000, 0x6FFC},
		PCs:     []uint32{0x100, 0x110, 0x120},
		NextPCs: []uint32{0x110, 0x120, 0x200},
	}
	of := Remap(f, ScopeFrame)
	opts := AllOptions()
	opts.Speculative = false
	s := Optimize(of, opts)
	if s.SFLoads != 0 || of.NumValidLoads() != 1 {
		t.Errorf("conservative mode forwarded anyway: %+v", s)
	}
}

// TestRedundantLoadCSE: two loads of the same address with a provably
// disjoint store between them common to one load.
func TestRedundantLoadCSE(t *testing.T) {
	f := &frame.Frame{
		StartPC: 0x100, ExitPC: 0x200, NumX86: 3,
		UOps: []uop.UOp{
			{Op: uop.LOAD, Dest: uop.EAX, SrcA: uop.EBP, SrcB: uop.RegNone, Imm: -8},
			{Op: uop.STORE, SrcA: uop.EBP, SrcB: uop.ECX, Imm: -16}, // same base, disjoint
			{Op: uop.LOAD, Dest: uop.EDX, SrcA: uop.EBP, SrcB: uop.RegNone, Imm: -8},
		},
		InstIdx: []int32{0, 1, 2},
		MemSub:  []int8{0, 0, 0},
		MemAddr: []uint32{0x7000 - 8, 0x7000 - 16, 0x7000 - 8},
		PCs:     []uint32{0x100, 0x110, 0x120},
		NextPCs: []uint32{0x110, 0x120, 0x200},
	}
	of := Remap(f, ScopeFrame)
	s := Optimize(of, AllOptions())
	if s.CSELoads != 1 {
		t.Fatalf("CSE loads = %d (stats %+v)", s.CSELoads, s)
	}
	if s.UnsafeStores != 0 {
		t.Error("disjoint store should not be unsafe")
	}
	regs := &uop.Regs{}
	regs.Set(uop.EBP, 0x7000)
	regs.Set(uop.ECX, 7)
	mem := uop.MapMemory{0x7000 - 8: 0x55}
	res, err := Execute(of, regs, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs.Get(uop.EAX) != 0x55 || res.Regs.Get(uop.EDX) != 0x55 {
		t.Errorf("EAX=%#x EDX=%#x", res.Regs.Get(uop.EAX), res.Regs.Get(uop.EDX))
	}
	if res.Loads != 1 {
		t.Errorf("performed %d loads, want 1", res.Loads)
	}
}

// TestAssertFusion: CMP+assert fuses into CASSERT and the CMP dies.
func TestAssertFusion(t *testing.T) {
	f := &frame.Frame{
		StartPC: 0x100, ExitPC: 0x200, NumX86: 2,
		UOps: []uop.UOp{
			{Op: uop.SUB, Dest: uop.RegNone, SrcA: uop.EAX, SrcB: uop.RegNone, Imm: 5, WritesFlags: true},
			{Op: uop.ASSERT, Cond: x86.CondE},
			{Op: uop.ADD, Dest: uop.EBX, SrcA: uop.EBX, SrcB: uop.RegNone, Imm: 1},
		},
		InstIdx: []int32{0, 0, 1},
		MemSub:  []int8{-1, -1, -1},
		MemAddr: []uint32{0, 0, 0},
		PCs:     []uint32{0x100, 0x110},
		NextPCs: []uint32{0x110, 0x200},
	}
	of := Remap(f, ScopeFrame)
	s := Optimize(of, AllOptions())
	if s.FusedAsserts != 1 {
		t.Fatalf("fused = %d", s.FusedAsserts)
	}
	// The CMP's flags feed nothing else; the flag write is dead... but the
	// frame's last flag writer is live-out, so the SUB must survive as the
	// architectural flag producer? No: the fused CASSERT no longer reads
	// it, yet FLAGS is live-out of the frame, so it stays.
	var ops []uop.Op
	for i := range of.Ops {
		if of.Ops[i].Valid {
			ops = append(ops, of.Ops[i].Op)
		}
	}
	foundCassert := false
	for _, op := range ops {
		if op == uop.CASSERT {
			foundCassert = true
		}
		if op == uop.ASSERT {
			t.Error("unfused ASSERT survives")
		}
	}
	if !foundCassert {
		t.Errorf("no CASSERT after fusion: %v", ops)
	}

	// Execution: EAX == 5 passes, EAX != 5 fires.
	regs := &uop.Regs{}
	regs.Set(uop.EAX, 5)
	res, err := Execute(of, regs, uop.MapMemory{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Error("holding CASSERT aborted")
	}
	regs.Set(uop.EAX, 6)
	res, err = Execute(of, regs, uop.MapMemory{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Error("violated CASSERT did not abort")
	}
}

func chainFrame(writesFlags bool) *frame.Frame {
	return &frame.Frame{
		StartPC: 0x100, ExitPC: 0x200, NumX86: 4,
		UOps: []uop.UOp{
			{Op: uop.ADD, Dest: uop.EAX, SrcA: uop.EAX, SrcB: uop.RegNone, Imm: 1, WritesFlags: writesFlags},
			{Op: uop.ADD, Dest: uop.EAX, SrcA: uop.EAX, SrcB: uop.RegNone, Imm: 2, WritesFlags: writesFlags},
			{Op: uop.SUB, Dest: uop.EAX, SrcA: uop.EAX, SrcB: uop.RegNone, Imm: 7, WritesFlags: writesFlags},
			{Op: uop.ADD, Dest: uop.EAX, SrcA: uop.EAX, SrcB: uop.RegNone, Imm: 10, WritesFlags: writesFlags},
		},
		InstIdx: []int32{0, 1, 2, 3},
		MemSub:  []int8{-1, -1, -1, -1},
		MemAddr: []uint32{0, 0, 0, 0},
		PCs:     []uint32{0x100, 0x110, 0x120, 0x130},
		NextPCs: []uint32{0x110, 0x120, 0x130, 0x200},
	}
}

// TestReassociationChain: a chain of flag-free immediate adds (the stack
// pointer pattern) collapses to a single add from the live-in.
func TestReassociationChain(t *testing.T) {
	of := Remap(chainFrame(false), ScopeFrame)
	s := Optimize(of, AllOptions())
	if s.Reassoc == 0 {
		t.Fatalf("no reassociation: %+v", s)
	}
	if of.NumValid() != 1 {
		for i := range of.Ops {
			if of.Ops[i].Valid {
				t.Logf("  %s", &of.Ops[i])
			}
		}
		t.Fatalf("valid = %d, want 1", of.NumValid())
	}
	regs := &uop.Regs{}
	regs.Set(uop.EAX, 100)
	res, err := Execute(of, regs, uop.MapMemory{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs.Get(uop.EAX) != 106 {
		t.Errorf("EAX = %d, want 106", res.Regs.Get(uop.EAX))
	}
}

// TestReassociationPreservesLiveFlags: when the final add's flags are
// architecturally live, it must not be rewritten (CF/OF would change), so
// exactly two ops survive and the flag semantics are exact.
func TestReassociationPreservesLiveFlags(t *testing.T) {
	of := Remap(chainFrame(true), ScopeFrame)
	Optimize(of, AllOptions())
	if of.NumValid() != 2 {
		for i := range of.Ops {
			if of.Ops[i].Valid {
				t.Logf("  %s", &of.Ops[i])
			}
		}
		t.Fatalf("valid = %d, want 2", of.NumValid())
	}
	// The surviving final op must read its true parent, and its flags must
	// match an exact sequential evaluation.
	regs := &uop.Regs{}
	regs.Set(uop.EAX, 0xFFFFFFFB) // exercises carry behaviour
	res, err := Execute(of, regs, uop.MapMemory{})
	if err != nil {
		t.Fatal(err)
	}
	ref := &uop.Regs{}
	ref.Set(uop.EAX, 0xFFFFFFFB)
	for _, u := range chainFrame(true).UOps {
		if _, err := uop.Eval(u, ref, uop.MapMemory{}); err != nil {
			t.Fatal(err)
		}
	}
	if res.Regs.Get(uop.EAX) != ref.Get(uop.EAX) || res.Regs.Flags() != ref.Flags() {
		t.Errorf("optimized EAX=%#x flags=%s, reference EAX=%#x flags=%s",
			res.Regs.Get(uop.EAX), res.Regs.Flags(), ref.Get(uop.EAX), ref.Flags())
	}
}

// TestParentsChildren exercises the dependency traversal primitives.
func TestParentsChildren(t *testing.T) {
	f := buildFigure2Frame(t)
	of := Remap(f, ScopeFrame)
	// The OR (index 8 in the unoptimized frame: after 2+2+1+1+1+1 = uop 8
	// counting from 0... find it dynamically).
	var orIdx int32 = -1
	for i := range of.Ops {
		if of.Ops[i].Op == uop.OR {
			orIdx = int32(i)
		}
	}
	if orIdx < 0 {
		t.Fatal("no OR")
	}
	parents := of.Parents(orIdx)
	if len(parents) == 0 {
		t.Fatal("OR has no parents")
	}
	// The assert consumes the OR's flags: OR must list it as a child.
	children := of.Children(orIdx)
	foundAssert := false
	for _, c := range children {
		if of.Ops[c].Op == uop.ASSERT {
			foundAssert = true
		}
	}
	if !foundAssert {
		t.Errorf("OR children = %v, missing assert", children)
	}
}

// TestRemapLiveIn: the first reader of each register sees a live-in ref.
func TestRemapLiveIn(t *testing.T) {
	f := buildFigure2Frame(t)
	of := Remap(f, ScopeFrame)
	// UOp 0: STORE [ESP-4] <- EBP. Both sources are live-ins.
	o := &of.Ops[0]
	if o.SrcA.Kind != RefLiveIn || o.SrcA.Arch != uop.ESP {
		t.Errorf("store base = %s", o.SrcA)
	}
	if o.SrcB.Kind != RefLiveIn || o.SrcB.Arch != uop.EBP {
		t.Errorf("store data = %s", o.SrcB)
	}
}
