package p4

import (
	"fmt"
	"strings"
	"testing"
)

// smallModel is a tight profile for exercising budget bumping.
func smallModel(stages int) TargetModel {
	return TargetModel{
		Name:               "test",
		Stages:             stages,
		ALUsPerStage:       4,
		HashUnitsPerStage:  1,
		RegActionsPerStage: 2,
		TablesPerStage:     1,
		SRAMPerStageBytes:  1 << 16,
	}
}

func mustAllocate(t *testing.T, p *Program, tm TargetModel) *StageReport {
	t.Helper()
	rep, err := AllocateStages(p, tm)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// A serial def-use chain occupies one stage per op: each op consumes the
// value the previous stage produced.
func TestAllocateStagesSerialChain(t *testing.T) {
	p := NewProgram("chain")
	a := p.AddField("m.a", 64)
	b := p.AddField("m.b", 64)
	c := p.AddField("m.c", 64)
	p.AddAction(NewAction("calc", 0,
		Add(a, C(1), C(2)),
		Add(b, F(a), C(1)),
		Add(c, F(b), F(a)),
	))
	p.Control = []Stmt{Call("calc")}

	rep := mustAllocate(t, p, DefaultTargetModel())
	if rep.StagesUsed != 3 {
		t.Fatalf("StagesUsed = %d, want 3 (one per dependent op)", rep.StagesUsed)
	}
	if !rep.Fit || len(rep.Violations) != 0 {
		t.Fatalf("chain should fit: fit=%v violations=%v", rep.Fit, rep.Violations)
	}
}

// Branch conditions are gateway predication: nesting depth costs no stages,
// only the availability of the condition operands gates the guarded ops.
func TestAllocateStagesGatewayPredication(t *testing.T) {
	p := NewProgram("gateway")
	a := p.AddField("m.a", 64)
	b := p.AddField("m.b", 64)
	p.AddAction(NewAction("seed", 0, Add(a, C(1), C(1))))
	p.AddAction(NewAction("leaf", 0, Add(b, C(1), C(1))))
	p.Control = []Stmt{
		Call("seed"),
		If(Cond{A: F(a), Op: CmpGt, B: C(0)},
			If(Cond{A: F(a), Op: CmpGt, B: C(1)},
				If(Cond{A: F(a), Op: CmpGt, B: C(2)},
					Call("leaf"),
				),
			),
		),
	}

	rep := mustAllocate(t, p, DefaultTargetModel())
	// seed in stage 0, a available in stage 1, the triple-nested leaf in
	// stage 1 — nesting adds nothing.
	if rep.StagesUsed != 2 {
		t.Fatalf("StagesUsed = %d, want 2 (predication adds no depth)", rep.StagesUsed)
	}
}

// A read-modify-write on one register cell fuses into a single stateful
// access; the next access to the register orders after it.
func TestAllocateStagesRMWFusion(t *testing.T) {
	p := NewProgram("rmw")
	i := p.AddField("m.i", 32)
	v := p.AddField("m.v", 64)
	w := p.AddField("m.w", 64)
	p.AddRegister("r", 16, 64)
	p.AddAction(NewAction("bump", 0,
		Mov(i, C(3)),
		RegRead(v, "r", F(i)),
		Add(v, F(v), C(1)),
		RegWrite("r", F(i), F(v)),
	))
	p.AddAction(NewAction("reload", 0,
		RegRead(w, "r", F(i)),
	))
	p.Control = []Stmt{Call("bump"), Call("reload")}

	rep := mustAllocate(t, p, DefaultTargetModel())
	accesses := 0
	for _, su := range rep.Stages {
		accesses += su.RegActions
	}
	// read+write-back fuse into one access; the reload is a second one.
	if accesses != 2 {
		t.Fatalf("register accesses = %d, want 2 (RMW fuses, reload is separate)", accesses)
	}
	// mov in stage 0, fused RMW in stage 1, reload ordered after it.
	if got := rep.Stages[1].Registers; len(got) != 1 || got[0] != "r" {
		t.Fatalf("stage 1 registers = %v, want [r]", got)
	}
	if got := rep.Stages[2].Registers; len(got) != 1 || got[0] != "r" {
		t.Fatalf("stage 2 registers = %v, want [r] (reload ordered after the RMW)", got)
	}
}

// A write of a value computed long after the read cannot fuse: it becomes a
// second access in a later stage.
func TestAllocateStagesUnfusableWrite(t *testing.T) {
	p := NewProgram("unfusable")
	i := p.AddField("m.i", 32)
	v := p.AddField("m.v", 64)
	x := p.AddField("m.x", 64)
	p.AddRegister("r", 16, 64)
	p.AddAction(NewAction("slow", 0,
		Mov(i, C(3)),
		RegRead(v, "r", F(i)),
		Mul(x, F(v), F(v)), // a multiply leaves the stateful ALU's vocabulary
		RegWrite("r", F(i), F(x)),
	))
	p.Control = []Stmt{Call("slow")}

	rep := mustAllocate(t, p, DefaultTargetModel())
	accesses := 0
	for _, su := range rep.Stages {
		accesses += su.RegActions
	}
	if accesses != 2 {
		t.Fatalf("register accesses = %d, want 2 (multiplied value cannot write back in the read's stateful op)", accesses)
	}
}

// Mutually exclusive alternatives — table actions, branch arms — share a
// stage's budgets: per-stage cost is the max across alternatives.
func TestAllocateStagesExclusiveArmsShareBudget(t *testing.T) {
	p := NewProgram("arms")
	std := DeclareStdFields(p)
	a := p.AddField("m.a", 64)
	b := p.AddField("m.b", 64)
	c := p.AddField("m.c", 64)
	heavy := func(name string) {
		p.AddAction(NewAction(name, 0,
			Add(a, C(1), C(1)),
			Add(b, C(2), C(2)),
			Add(c, C(3), C(3)),
		))
	}
	heavy("left")
	heavy("right")
	p.AddTable(&TableDef{
		Name:          "pick",
		Keys:          []KeySpec{{Field: std.IPv4Dst, Kind: MatchExact}},
		ActionNames:   []string{"left", "right"},
		DefaultAction: "left",
		MaxEntries:    4,
	})
	p.Control = []Stmt{Apply("pick")}

	// ALUsPerStage 4 < 2×3: only fits because alternatives take max, not sum.
	rep := mustAllocate(t, p, smallModel(12))
	if !rep.Fit {
		t.Fatalf("exclusive arms should share the ALU budget: %v", rep.Violations)
	}
	if rep.Stages[0].ALUs != 3 {
		t.Fatalf("stage 0 ALUs = %d, want 3 (max across alternatives)", rep.Stages[0].ALUs)
	}
}

// Per-stage table budget bumps a second table to the next stage.
func TestAllocateStagesTableBudgetBumps(t *testing.T) {
	p := NewProgram("tables")
	std := DeclareStdFields(p)
	p.AddAction(NewAction("noop", 0))
	for _, name := range []string{"t1", "t2"} {
		p.AddTable(&TableDef{
			Name:          name,
			Keys:          []KeySpec{{Field: std.IPv4Dst, Kind: MatchExact}},
			ActionNames:   []string{"noop"},
			DefaultAction: "noop",
			MaxEntries:    4,
		})
	}
	p.Control = []Stmt{Apply("t1"), Apply("t2")}

	rep := mustAllocate(t, p, smallModel(12)) // TablesPerStage: 1
	if len(rep.Stages[0].Tables) != 1 || len(rep.Stages[1].Tables) != 1 {
		t.Fatalf("tables not spread across stages: %v / %v",
			rep.Stages[0].Tables, rep.Stages[1].Tables)
	}
}

// An over-budget program still yields a full placement, with Fit=false and
// the overflowing ops named.
func TestAllocateStagesOverBudget(t *testing.T) {
	p := NewProgram("deep")
	a := p.AddField("m.a", 64)
	b := p.AddField("m.b", 64)
	c := p.AddField("m.c", 64)
	p.AddAction(NewAction("calc", 0,
		Add(a, C(1), C(2)),
		Add(b, F(a), C(1)),
		Add(c, F(b), F(a)),
	))
	p.Control = []Stmt{Call("calc")}

	rep := mustAllocate(t, p, smallModel(2))
	if rep.Fit {
		t.Fatal("3-deep chain cannot fit 2 stages")
	}
	if rep.StagesUsed != 3 {
		t.Fatalf("StagesUsed = %d, want 3 (placement completes past the limit)", rep.StagesUsed)
	}
	if len(rep.Violations) == 0 || !strings.Contains(rep.Violations[0], "calc") {
		t.Fatalf("violations should name the overflowing action: %v", rep.Violations)
	}
}

// A register larger than a whole stage's SRAM fits no stage. Placement must
// still end: the register is charged to its earliest stage, with one
// violation naming it, its size and the budget.
func TestAllocateStagesRegisterOverStageSRAM(t *testing.T) {
	tm := smallModel(4)
	p := NewProgram("huge")
	v := p.AddField("m.v", 64)
	p.AddRegister("big", 2*tm.SRAMPerStageBytes/8, 64)
	p.AddAction(NewAction("touch", 0, RegRead(v, "big", C(0))))
	p.Control = []Stmt{Call("touch")}

	rep := mustAllocate(t, p, tm)
	if rep.Fit {
		t.Fatal("a register at twice the stage SRAM cannot fit")
	}
	if rep.StagesUsed != 1 {
		t.Fatalf("StagesUsed = %d, want 1 (charged to its earliest stage)", rep.StagesUsed)
	}
	want := fmt.Sprintf(`register "big" needs %d B of SRAM, over the %d B per-stage budget`,
		2*tm.SRAMPerStageBytes, tm.SRAMPerStageBytes)
	if len(rep.Violations) != 1 || rep.Violations[0] != want {
		t.Fatalf("violations = %q, want [%q]", rep.Violations, want)
	}
}

func TestTargetModelValidate(t *testing.T) {
	tm := DefaultTargetModel()
	if err := tm.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	tm.RegActionsPerStage = 0
	if err := tm.Validate(); err == nil {
		t.Fatal("zero reg_actions_per_stage should fail validation")
	}
	if _, err := AllocateStages(NewProgram("empty"), tm); err == nil {
		t.Fatal("AllocateStages should reject an invalid model")
	}
}

// The stage report embeds the static resource report, so one call serves
// both the budget gate and the -resources dump.
func TestAllocateStagesEmbedsResourceReport(t *testing.T) {
	p, _ := buildCounterProgram()
	rep := mustAllocate(t, p, DefaultTargetModel())
	want := AnalyzeProgram(p)
	if rep.ResourceReport != want {
		t.Fatalf("embedded ResourceReport diverges:\n got %+v\nwant %+v", rep.ResourceReport, want)
	}
	if rep.StagesUsed != len(rep.Stages) {
		t.Fatalf("StagesUsed %d != len(Stages) %d", rep.StagesUsed, len(rep.Stages))
	}
}
