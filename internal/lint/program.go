package lint

import (
	"fmt"
	"go/token"

	"stat4/internal/p4"
)

// The program-level passes: unlike the AST analyzers, these run over
// emitted p4.Programs, not Go source. Positions are pseudo-files named
// program:<case>, since a finding belongs to an emitted program as a whole.
//
// StageBudget and MergeLaw are not part of Analyzers(): there is no
// //stat4:exempt: mechanism for them (exemptions are declared on the Program
// itself, via ExemptMergeWrite and SetMergeWhy), so admitting their names in
// comment directives would create directives nothing honors.

// StageBudget verifies that a program's control flow places into the
// per-stage budgets of a PISA target model (p4.AllocateStages). A program
// that doesn't fit is one the paper's in-switch deployment claim does not
// cover, however clean its Go rendering is.
var StageBudget = &Analyzer{
	Name: "stagebudget",
	Doc:  "compiled programs must place into the target model's stage and per-stage budgets",
}

// MergeLaw verifies the cross-replica merge discipline of a program's
// registers (p4.CheckMergeLaw): declared kinds, additive-only MergeSum
// writes, and a recompute-or-reason account of every MergeDerived register.
var MergeLaw = &Analyzer{
	Name: "mergelaw",
	Doc:  "register state must declare and obey its cross-replica merge kind",
}

// ProgramCase is one registered program under the program-level passes.
type ProgramCase struct {
	// Name labels diagnostics (the pseudo-file is program:<Name>).
	Name string
	// Prog is the built program.
	Prog *p4.Program
	// Recomputed lists the MergeDerived registers the program's snapshot
	// canonicalizer rebuilds from merged state (see p4.CheckMergeLaw).
	Recomputed []string
}

// RunPrograms executes the program-level passes over every case against one
// target model and returns the findings as diagnostics, in case order.
func RunPrograms(cases []ProgramCase, tm p4.TargetModel) []Diagnostic {
	var out []Diagnostic
	for _, c := range cases {
		pos := token.Position{Filename: "program:" + c.Name}
		report := func(analyzer, msg string) {
			out = append(out, Diagnostic{Pos: pos, Analyzer: analyzer, Message: msg})
		}

		rep, err := p4.AllocateStages(c.Prog, tm)
		switch {
		case err != nil:
			report(StageBudget.Name, fmt.Sprintf("stage allocation failed: %v", err))
		case !rep.Fit:
			report(StageBudget.Name, fmt.Sprintf(
				"needs %d stages of the %d-stage %q target", rep.StagesUsed, tm.Stages, tm.Name))
			for _, v := range rep.Violations {
				report(StageBudget.Name, v)
			}
		}

		for _, f := range p4.CheckMergeLaw(c.Prog, c.Recomputed) {
			report(MergeLaw.Name, f)
		}
	}
	return out
}
