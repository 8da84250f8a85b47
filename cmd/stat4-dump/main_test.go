package main

import (
	"strings"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/stat4p4"
)

// The -resources rendering: a fitting program prints one row per occupied
// stage, the verdict, and the embedded resource report.
func TestFormatStageReportFits(t *testing.T) {
	lib := stat4p4.Build(stat4p4.DefaultOptions)
	rep, err := p4.AllocateStages(lib.Prog, p4.DefaultTargetModel())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fit {
		t.Fatalf("default program must fit the default model: %v", rep.Violations)
	}
	out := formatStageReport(rep)
	if !strings.Contains(out, "[fits]") {
		t.Errorf("verdict line missing from:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got < rep.StagesUsed+3 {
		t.Errorf("expected a row per stage (%d) plus header/verdict lines, got %d lines", rep.StagesUsed, got)
	}
	if !strings.Contains(out, "regs: stat.counters") {
		t.Errorf("register placement missing from:\n%s", out)
	}
	if !strings.Contains(out, "resources: ") {
		t.Errorf("resource report missing from:\n%s", out)
	}
}

// The flow-table catalog shapes place their register pairs and fit the
// default target — what `stat4-dump -flow-table 1024 -resources` shows.
func TestFormatStageReportFlowTable(t *testing.T) {
	for _, opts := range []stat4p4.Options{
		{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 1024},
		{Slots: 2, Size: 256, Stages: 1, FlowTable: true, FlowTableSize: 4096, HeavyHitter: true, NoVariance: true},
	} {
		lib := stat4p4.Build(opts)
		rep, err := p4.AllocateStages(lib.Prog, p4.DefaultTargetModel())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Fit {
			t.Fatalf("flow-table program %+v must fit the default model: %v", opts, rep.Violations)
		}
		out := formatStageReport(rep)
		for _, reg := range []string{"stat.ftkeys", "stat.ftstamp", "stat.ftcnt"} {
			if !strings.Contains(out, reg) {
				t.Errorf("flow-table register %s missing from placement:\n%s", reg, out)
			}
		}
	}
}

// An over-budget placement renders its verdict and names the violations.
func TestFormatStageReportOverBudget(t *testing.T) {
	lib := stat4p4.Build(stat4p4.DefaultOptions)
	tm := p4.DefaultTargetModel()
	tm.Stages = 4
	rep, err := p4.AllocateStages(lib.Prog, tm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fit {
		t.Fatal("default program cannot fit 4 stages")
	}
	out := formatStageReport(rep)
	if !strings.Contains(out, "[DOES NOT FIT]") || !strings.Contains(out, "violation: ") {
		t.Errorf("over-budget report lacks verdict or violations:\n%s", out)
	}
}

// A flow table whose registers outgrow a whole stage's SRAM cannot fit:
// -resources must say so and exit 1 rather than search for a stage forever.
// The "flowtable" catalog shape at 1024 buckets fits and exits 0.
func TestRunResourcesOversizedFlowTable(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-resources", "-flow-table", "131072"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[DOES NOT FIT]") ||
		!strings.Contains(out.String(), `register "stat.ftkeys" needs 2097152 B of SRAM, over the 1048576 B per-stage budget`) {
		t.Fatalf("report lacks the verdict or the SRAM violation:\n%s", out.String())
	}
	out.Reset()
	catalog := []string{"-resources", "-slots", "1", "-size", "64", "-stages", "1", "-flow-table", "1024"}
	if code := run(catalog, &out, &errOut); code != 0 {
		t.Fatalf("catalog shape: exit %d, want 0:\n%s", code, out.String())
	}
}
