package stat4p4_test

import (
	"testing"

	"stat4/internal/lint"
	"stat4/internal/p4"
	"stat4/internal/stat4p4"
)

// The feasibility gate: every registered program must place into the default
// target model and obey the merge law. This is the same check CI runs
// through cmd/stat4-lint -programs; a sizing that stops fitting fails here
// first, with the violations spelled out.
func TestRegisteredProgramsPassProgramGate(t *testing.T) {
	tm := p4.DefaultTargetModel()
	for _, rp := range stat4p4.Registered() {
		rp := rp
		t.Run(rp.Name, func(t *testing.T) {
			lib := stat4p4.Build(rp.Opts)
			diags := lint.RunPrograms([]lint.ProgramCase{{
				Name:       rp.Name,
				Prog:       lib.Prog,
				Recomputed: lib.RecomputedRegisters(),
			}}, tm)
			for _, d := range diags {
				t.Errorf("%s", d)
			}
		})
	}
}

// The catalog itself must stay well-formed: unique names, positive sizings.
func TestRegisteredCatalogWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, rp := range stat4p4.Registered() {
		if rp.Name == "" || rp.Note == "" {
			t.Errorf("catalog entry %+v lacks a name or provenance note", rp)
		}
		if seen[rp.Name] {
			t.Errorf("duplicate catalog entry %q", rp.Name)
		}
		seen[rp.Name] = true
		if rp.Opts.Slots <= 0 || rp.Opts.Size <= 0 {
			t.Errorf("catalog entry %q has a non-positive sizing: %+v", rp.Name, rp.Opts)
			continue
		}
		// Runtime.ResetSlot zeroes one stripe of every register; a register
		// that is not slot-striped would be half-reset.
		for _, rd := range stat4p4.Build(rp.Opts).Prog.Registers {
			if rd.Cells%rp.Opts.Slots != 0 {
				t.Errorf("%s: register %s has %d cells, not a multiple of %d slots", rp.Name, rd.Name, rd.Cells, rp.Opts.Slots)
			}
		}
	}
}
