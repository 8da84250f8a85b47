package stat4p4

import "slices"

// The registered-program catalog: every library configuration and example
// sizing the repo ships is listed here, so whole-program gates — the
// stage-budget allocation in internal/p4/stagealloc.go, the merge-law checks
// — run over all of them rather than whichever configuration a test happens
// to build. cmd/stat4-lint iterates this catalog; adding a configuration
// here puts it under the feasibility gate.

// RegisteredProgram is one catalog entry: a named Options sizing plus where
// the sizing comes from.
type RegisteredProgram struct {
	Name string
	Opts Options
	Note string
}

// Registered returns the catalog, in a stable order: the library's own
// configuration axes first, then the example/application sizings shipped in
// configs/, examples/, internal/detect and cmd/, then the programs
// stat4-replay compiles for its tracks that no earlier row already is.
func Registered() []RegisteredProgram {
	rows := []RegisteredProgram{
		{Name: "default", Opts: DefaultOptions,
			Note: "DefaultOptions: 8 slots x 256 cells, two binding stages"},
		{Name: "echo", Opts: Options{Slots: 1, Size: 512, Stages: 1, Echo: true},
			Note: "Figure 5 echo application (cmd/stat4-echo sizing)"},
		{Name: "strict", Opts: Options{Slots: 8, Size: 256, Stages: 2, Strict: true},
			Note: "TargetStrict emission: shift-approximated variance"},
		{Name: "cell32", Opts: Options{Slots: 2, Size: 256, Stages: 2, CellWidth: 32},
			Note: "deployable 32-bit-cell sizing used by the resource analysis"},
		{Name: "novariance", Opts: Options{Slots: 8, Size: 256, Stages: 2, NoVariance: true},
			Note: "circular-buffer override only (the paper's 12-step chain)"},
		{Name: "casestudy", Opts: Options{Slots: 2, Size: 256, Stages: 2},
			Note: "configs/casestudy.json"},
		{Name: "ddos-sparse", Opts: Options{Slots: 1, Size: 256, Stages: 1, FlowTable: true, FlowTableSize: 256},
			Note: "configs/ddos-sparse.json"},
		{Name: "synflood", Opts: Options{Slots: 1, Size: 64, Stages: 1},
			Note: "configs/synflood.json"},
		{Name: "entropy", Opts: Options{Slots: 1, Size: 256, Stages: 1, Entropy: true},
			Note: "integer entropy over a 256-value distribution (examples/entropy-ddos)"},
		{Name: "heavyhitter", Opts: Options{Slots: 1, Size: 64, Stages: 1, HeavyHitter: true},
			Note: "probabilistic-recirculation heavy hitters (examples/heavyhitter)"},
		{Name: "entropy-hh", Opts: Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true},
			Note: "entropy and heavy hitters composed in one program; one binding stage leaves the recirculation pass its stage headroom"},
		{Name: "flowtable", Opts: Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 1024},
			Note: "flow-table state plane: 1024 2-left buckets of {key, stamp, count} per slot"},
		{Name: "flowtable-hh", Opts: Options{Slots: 2, Size: 256, Stages: 1, FlowTable: true, FlowTableSize: 4096, HeavyHitter: true, NoVariance: true},
			Note: "flow table composed with heavy hitters (counting only, NoVariance): churn-tolerant per-flow counts plus elephant promotion in one program"},
		{Name: "loadbalance", Opts: Options{Slots: 1, Size: 16, Stages: 1},
			Note: "examples/loadbalance"},
		{Name: "trafficclass", Opts: Options{Slots: 2, Size: 64, Stages: 2},
			Note: "examples/trafficclass"},
		{Name: "detect-hh", Opts: Options{Slots: 1, Size: 64, Stages: 1, HeavyHitter: true, HHTableSize: 128},
			Note: "internal/detect heavy-hitter config: a 128-entry candidate table"},
	}
	for _, name := range Tracks() {
		opts, _ := TrackOptions(name, TrackBase) // a listed track
		if slices.ContainsFunc(rows, func(r RegisteredProgram) bool { return r.Opts == opts }) {
			continue
		}
		row := RegisteredProgram{Name: "replay", Opts: opts, Note: "cmd/stat4-replay sizing"}
		if opts != TrackBase {
			row.Name, row.Note = "replay-"+name, "cmd/stat4-replay -track "+name
		}
		rows = append(rows, row)
	}
	return rows
}

// RecomputedRegisters lists the MergeDerived registers CanonicalizeSnapshot
// recomputes from the merged counters — the per-slot scalar block of a
// frequency slot, then what each measure that is on rebuilds. Every other
// MergeDerived register must carry a MergeWhy note explaining why
// zero-after-merge is the whole contract (window state merges through the
// shared-clock core.Window path; flow-table buckets are replica-local and
// merged by key). The mergelaw analyzer checks exactly this partition.
func (l *Library) RecomputedRegisters() []string {
	out := []string{
		RegN, RegXsum, RegXsumsq, RegVar, RegSD,
		RegMed, RegLow, RegHigh, RegMedInit,
	}
	for _, m := range measures {
		if *m.on(&l.Opts) {
			out = append(out, m.recomputed...)
		}
	}
	return out
}
