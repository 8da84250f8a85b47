package stat4p4_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stat4/internal/detect"
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

// The catalog copies its application rows from where they ship: each app
// config in configs/ loads to its same-named row's options, and each healthy
// internal/detect config compiles a catalog program (its DigestBuf sizes the
// mailbox, not the program).
func TestRegisteredMatchesSources(t *testing.T) {
	rows := make(map[string]stat4p4.Options)
	for _, rp := range stat4p4.Registered() {
		rows[rp.Name] = rp.Opts
	}
	paths, err := filepath.Glob("../../configs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no configs: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := stat4p4.LoadAppConfig(f)
		f.Close()
		row, isRow := rows[name]
		switch {
		case err != nil && isRow:
			t.Errorf("%s: row of a file that is no app config: %v", name, err)
		case err == nil && !isRow:
			t.Errorf("%s: app config with no catalog row", name)
		case err == nil && row != cfg.Options:
			t.Errorf("%s: row %+v, file %+v", name, row, cfg.Options)
		}
	}
	for _, c := range detect.Configs() {
		if c.Pathological {
			continue
		}
		opts := c.Opts
		opts.DigestBuf = 0
		found := false
		for _, o := range rows {
			found = found || o == opts
		}
		if !found {
			t.Errorf("detect config %s: %+v is no catalog row", c.Name, opts)
		}
	}
}
