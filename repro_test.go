package repro

import "testing"

func TestWorkloadsCatalog(t *testing.T) {
	ws := Workloads()
	if len(ws) != 14 {
		t.Fatalf("workloads = %d, want 14", len(ws))
	}
	classes := map[string]int{}
	for _, w := range ws {
		classes[w.Class]++
		if err := Validate(w.Name); err != nil {
			t.Errorf("catalog entry %q fails Validate: %v", w.Name, err)
		}
	}
	if classes["SPECint"] != 7 {
		t.Errorf("SPECint = %d, want 7", classes["SPECint"])
	}
	if err := Validate("quake"); err == nil {
		t.Error("unknown workload validated")
	}
}

func TestRunBasic(t *testing.T) {
	r, err := Run("crafty", RPO, WithInstructionBudget(25_000))
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.IPC > 8 {
		t.Errorf("IPC = %.2f", r.IPC)
	}
	if r.UOpReduction <= 0 {
		t.Errorf("no micro-op reduction: %.3f", r.UOpReduction)
	}
	var cycles uint64
	for _, v := range r.CycleBins {
		cycles += v
	}
	if cycles != r.Cycles {
		t.Errorf("bins %d != cycles %d", cycles, r.Cycles)
	}
}

func TestRunOptionsDisableOptimizations(t *testing.T) {
	all, err := Run("crafty", RPO, WithInstructionBudget(25_000))
	if err != nil {
		t.Fatal(err)
	}
	none, err := Run("crafty", RPO, WithInstructionBudget(25_000),
		WithoutOptimization("asst", "cp", "cse", "nop", "ra", "sf"))
	if err != nil {
		t.Fatal(err)
	}
	if none.UOpReduction >= all.UOpReduction {
		t.Errorf("disabling everything kept reduction: %.3f vs %.3f",
			none.UOpReduction, all.UOpReduction)
	}
}

func TestRunScope(t *testing.T) {
	frame, err := Run("crafty", RPO, WithInstructionBudget(25_000))
	if err != nil {
		t.Fatal(err)
	}
	block, err := Run("crafty", RPO, WithInstructionBudget(25_000), WithScope(IntraBlock))
	if err != nil {
		t.Fatal(err)
	}
	if block.UOpReduction >= frame.UOpReduction {
		t.Errorf("block-scope reduction %.3f >= frame-scope %.3f",
			block.UOpReduction, frame.UOpReduction)
	}
}

func TestRunCustomSpec(t *testing.T) {
	spec := WorkloadSpec{Seed: 7, Insts: 20_000, LoadRedundancy: 0.5}
	r, err := RunCustom(spec, RPO)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "custom" {
		t.Errorf("default name = %q", r.Workload)
	}
	if r.LoadReduction <= 0 {
		t.Errorf("redundant custom workload removed no loads")
	}
}

func TestProcessorConfigPerMode(t *testing.T) {
	if ProcessorConfig(IC).ICacheBytes != 64<<10 {
		t.Error("IC config should have the 64kB ICache")
	}
	if ProcessorConfig(RPO).ICacheBytes != 8<<10 {
		t.Error("RPO config should have the 8kB ICache")
	}
}

func TestByClass(t *testing.T) {
	if got := len(ByClass("SPECint")); got != 7 {
		t.Errorf("SPECint names = %d", got)
	}
	if got := len(ByClass("")); got != 14 {
		t.Errorf("all names = %d", got)
	}
}
