package workload

import "fmt"

// Profiles is the reproduction's workload set, one generator profile per
// application in the paper's Table 1. Instruction budgets are scaled down
// from the paper's 50-300M x86 instructions to laptop scale; the Traces
// counts match the table. Knob settings are calibrated so each profile's
// optimization yield and coverage approximate the per-application numbers
// in Table 3 and Figure 6 (see EXPERIMENTS.md).
var Profiles = []Profile{
	// SPECint 2000 (one 50M-instruction trace each in the paper).
	{
		Name: "bzip2", Class: "SPECint", Seed: 101, XInsts: specInsts, Traces: 1,
		Funcs: 3, BodyStmts: 10, LoopTrip: 2000,
		RedLoads: 0.45, RedALU: 0.15, ChainLen: 2, InnerBias: 0.9995, HardBranches: 0.06,
		AliasRate: 0, LeafCalls: 0.05, IndirectCalls: 0, WorkingSet: 1 << 14,
	},
	{
		Name: "crafty", Class: "SPECint", Seed: 102, XInsts: specInsts, Traces: 1,
		Funcs: 6, BodyStmts: 12, LoopTrip: 12,
		RedLoads: 0.05, RedALU: 0.08, ChainLen: 3, InnerBias: 0.995, HardBranches: 0.28,
		AliasRate: 0, LeafCalls: 0.15, IndirectCalls: 0, WorkingSet: 1 << 15,
	},
	{
		Name: "eon", Class: "SPECint", Seed: 103, XInsts: specInsts, Traces: 1,
		Funcs: 8, BodyStmts: 12, LoopTrip: 800,
		RedLoads: 0.05, RedALU: 0.02, ChainLen: 2, InnerBias: 0.998, HardBranches: 0.03,
		AliasRate: 0, LeafCalls: 0.3, IndirectCalls: 0, WorkingSet: 1 << 14,
	},
	{
		Name: "gzip", Class: "SPECint", Seed: 104, XInsts: specInsts, Traces: 1,
		Funcs: 4, BodyStmts: 10, LoopTrip: 1000,
		RedLoads: 0.3, RedALU: 0.0, ChainLen: 2, InnerBias: 0.996, HardBranches: 0.3,
		AliasRate: 0, LeafCalls: 0.05, IndirectCalls: 0, WorkingSet: 1 << 16,
	},
	{
		Name: "parser", Class: "SPECint", Seed: 105, XInsts: specInsts, Traces: 1,
		Funcs: 8, BodyStmts: 12, LoopTrip: 500,
		RedLoads: 0.03, RedALU: 0.05, ChainLen: 3, InnerBias: 0.999, HardBranches: 0.35,
		AliasRate: 0, LeafCalls: 0.25, IndirectCalls: 0, WorkingSet: 1 << 15,
	},
	{
		Name: "twolf", Class: "SPECint", Seed: 106, XInsts: specInsts, Traces: 1,
		Funcs: 6, BodyStmts: 12, LoopTrip: 600,
		RedLoads: 0.1, RedALU: 0.0, ChainLen: 2, InnerBias: 0.999, HardBranches: 0.14,
		AliasRate: 0, LeafCalls: 0.15, IndirectCalls: 0, WorkingSet: 1 << 16,
	},
	{
		Name: "vortex", Class: "SPECint", Seed: 107, XInsts: specInsts, Traces: 1,
		Funcs: 10, BodyStmts: 12, LoopTrip: 10,
		RedLoads: 0.4, RedALU: 0.08, ChainLen: 3, InnerBias: 0.998, HardBranches: 0.05,
		AliasRate: 0, LeafCalls: 0.5, IndirectCalls: 0, WorkingSet: 1 << 15,
	},

	// Windows desktop applications (Winstone; 2-3 hot-spot traces each).
	{
		Name: "access", Class: "Business", Seed: 201, XInsts: deskInsts, Traces: 2,
		Funcs: 14, BodyStmts: 16, LoopTrip: 8,
		RedLoads: 0.12, RedALU: 0.1, ChainLen: 3, InnerBias: 0.996, HardBranches: 0.12,
		AliasRate: 0.02, LeafCalls: 0.3, IndirectCalls: 0.3, WorkingSet: 1 << 16,
	},
	{
		Name: "dream", Class: "Content", Seed: 202, XInsts: deskInsts, Traces: 2,
		Funcs: 12, BodyStmts: 16, LoopTrip: 12,
		RedLoads: 0.22, RedALU: 0.2, ChainLen: 3, InnerBias: 0.996, HardBranches: 0.10,
		AliasRate: 0.01, LeafCalls: 0.25, IndirectCalls: 0.25, WorkingSet: 1 << 15,
	},
	{
		Name: "excel", Class: "Business", Seed: 203, XInsts: deskInsts, Traces: 3,
		Funcs: 14, BodyStmts: 16, LoopTrip: 8,
		RedLoads: 0.18, RedALU: 0.2, ChainLen: 3, InnerBias: 0.99, HardBranches: 0.08,
		AliasRate: 0.3, LeafCalls: 0.25, IndirectCalls: 0.3, WorkingSet: 1 << 16,
	},
	{
		Name: "lotus", Class: "Business", Seed: 204, XInsts: deskInsts, Traces: 2,
		Funcs: 14, BodyStmts: 14, LoopTrip: 8,
		RedLoads: 0.25, RedALU: 0.12, ChainLen: 3, InnerBias: 0.991, HardBranches: 0.22,
		AliasRate: 0.02, LeafCalls: 0.3, IndirectCalls: 0.35, WorkingSet: 1 << 16,
	},
	{
		Name: "photo", Class: "Content", Seed: 205, XInsts: deskInsts, Traces: 2,
		Funcs: 10, BodyStmts: 14, LoopTrip: 800,
		RedLoads: 0.05, RedALU: 0.0, ChainLen: 3, InnerBias: 0.995, HardBranches: 0.04,
		AliasRate: 0.01, LeafCalls: 0.15, IndirectCalls: 0.2, WorkingSet: 1 << 17,
	},
	{
		Name: "power", Class: "Business", Seed: 206, XInsts: deskInsts, Traces: 3,
		Funcs: 16, BodyStmts: 16, LoopTrip: 8,
		RedLoads: 0.8, RedALU: 0.85, ChainLen: 2, InnerBias: 0.985, HardBranches: 0.5,
		AliasRate: 0.02, LeafCalls: 0.25, IndirectCalls: 0.4, WorkingSet: 1 << 16,
	},
	{
		Name: "sound", Class: "Content", Seed: 207, XInsts: deskInsts, Traces: 3,
		Funcs: 12, BodyStmts: 14, LoopTrip: 10,
		RedLoads: 0.4, RedALU: 0.3, ChainLen: 2, InnerBias: 0.988, HardBranches: 0.35,
		AliasRate: 0.02, LeafCalls: 0.2, IndirectCalls: 0.3, WorkingSet: 1 << 16,
	},
}

// Scaled instruction budgets per trace.
const (
	specInsts = 300_000
	deskInsts = 120_000
)

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// SPECProfiles returns the SPECint subset.
func SPECProfiles() []Profile { return filterClass(true) }

// DesktopProfiles returns the desktop-application subset.
func DesktopProfiles() []Profile { return filterClass(false) }

func filterClass(spec bool) []Profile {
	var out []Profile
	for _, p := range Profiles {
		if (p.Class == "SPECint") == spec {
			out = append(out, p)
		}
	}
	return out
}
