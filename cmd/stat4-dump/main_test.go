package main

import (
	"fmt"
	"os"
	"path/filepath"
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

// writeConfig writes an app config with these options and one binding.
func writeConfig(t *testing.T, options string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "app.json")
	cfg := `{"options": ` + options + `, "bindings": [{"kind": "window", "capacity": 8}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A flow table whose registers outgrow a whole stage's SRAM cannot fit:
// -resources must say so and exit 1 rather than search for a stage forever.
// The "flowtable" catalog row at 1024 buckets fits and exits 0.
func TestRunResourcesOversizedFlowTable(t *testing.T) {
	var out, errOut strings.Builder
	cfg := writeConfig(t, `{"Slots": 2, "Size": 128, "Stages": 2, "FlowTable": true, "FlowTableSize": 131072}`)
	if code := run([]string{"-resources", "-config", cfg}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[DOES NOT FIT]") ||
		!strings.Contains(out.String(), `register "stat.ftkeys" needs 2097152 B of SRAM, over the 1048576 B per-stage budget`) {
		t.Fatalf("report lacks the verdict or the SRAM violation:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-resources", "-program", "flowtable"}, &out, &errOut); code != 0 {
		t.Fatalf("catalog row: exit %d, want 0:\n%s", code, out.String())
	}
}

// A flow table the program cannot have is a usage error with the Options
// check's own message.
func TestRunBadFlowTable(t *testing.T) {
	var out, errOut strings.Builder
	cfg := writeConfig(t, `{"Slots": 2, "Size": 128, "Stages": 2, "FlowTable": true, "FlowTableSize": 3}`)
	if code := run([]string{"-config", cfg}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errOut.String())
	}
	opts := stat4p4.Options{Slots: 2, Size: 128, Stages: 2, FlowTable: true, FlowTableSize: 3}
	if want := opts.Check(); want == nil || errOut.String() != want.Error()+"\n" {
		t.Fatalf("stderr %q, want %v", errOut.String(), want)
	}
}

// An unknown row, -program with -config, and a config that does not load
// are usage errors.
func TestRunUsageErrors(t *testing.T) {
	cfg := writeConfig(t, `{"Slots": 1, "Size": 64, "Stages": 1}`)
	for _, args := range [][]string{
		{"-program", "bogus"},
		{"-program", "default", "-config", cfg},
		{"-config", filepath.Join(t.TempDir(), "missing.json")},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a message", args, code, errOut.String())
		}
	}
}

// Every catalog row prints through -program exactly what its options build:
// the listing with the resource report, the P4-16 text and the placement.
func TestRunEveryProgram(t *testing.T) {
	for _, rp := range stat4p4.Registered() {
		lib := stat4p4.Build(rp.Opts)
		var listing strings.Builder
		fmt.Fprint(&listing, p4.Format(lib.Prog))
		fmt.Fprintln(&listing)
		printResourceReport(&listing, p4.AnalyzeProgram(lib.Prog))
		rep, err := p4.AllocateStages(lib.Prog, p4.DefaultTargetModel())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			flag, want string
		}{
			{"", listing.String()},
			{"-p416", stat4p4.EmitP416(lib)},
			{"-resources", formatStageReport(rep)},
		} {
			args := []string{"-program", rp.Name}
			if c.flag != "" {
				args = append(args, c.flag)
			}
			var out, errOut strings.Builder
			if code := run(args, &out, &errOut); code != 0 || out.String() != c.want {
				t.Errorf("%v: exit %d (stderr %q); output differs from Build(%+v)", args, code, errOut.String(), rp.Opts)
			}
		}
	}
}

// -program entropy-hh prints the daemon's program: the catalog row stat4d
// runs places exactly as AllocateStages places it, entropy registers
// included.
func TestRunResourcesEntropyHH(t *testing.T) {
	var want *p4.StageReport
	for _, rp := range stat4p4.Registered() {
		if rp.Name == "entropy-hh" {
			rep, err := p4.AllocateStages(stat4p4.Build(rp.Opts).Prog, p4.DefaultTargetModel())
			if err != nil {
				t.Fatal(err)
			}
			want = rep
		}
	}
	if want == nil {
		t.Fatal("no entropy-hh in the catalog")
	}
	var out, errOut strings.Builder
	if code := run([]string{"-program", "entropy-hh", "-resources"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s\n%s", code, errOut.String(), out.String())
	}
	if got := out.String(); got != formatStageReport(want) {
		t.Fatalf("placement differs from the catalog's:\n%s\nwant\n%s", got, formatStageReport(want))
	}
	if !strings.Contains(out.String(), "stat.ent") {
		t.Fatalf("entropy registers missing from the placement:\n%s", out.String())
	}
}
