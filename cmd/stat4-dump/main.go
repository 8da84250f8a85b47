// Command stat4-dump prints the emitted Stat4 P4 program as a readable
// pseudo-P4 listing together with its resource report — useful for
// inspecting what the emitter actually generates.
//
//	stat4-dump -slots 8 -size 256 -stages 2
//	stat4-dump -strict -report-only
//	stat4-dump -resources                  # stage placement against the target model
//	stat4-dump -resources -target configs/lint-target.json
//	stat4-dump -slots 1 -size 64 -stages 1 -flow-table 1024 -resources   # "flowtable" catalog shape
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"stat4/internal/p4"
	"stat4/internal/stat4p4"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the listing or report to
// stdout, and returns the exit status — 2 on a usage or target error, 1 when
// -resources finds the program does not fit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stat4-dump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	slots := fs.Int("slots", 2, "STAT_COUNTER_NUM: simultaneous distributions")
	size := fs.Int("size", 128, "STAT_COUNTER_SIZE: cells per distribution")
	stages := fs.Int("stages", 2, "binding stages")
	echo := fs.Bool("echo", false, "include the echo application")
	strict := fs.Bool("strict", false, "emit for the multiplication-free target")
	reportOnly := fs.Bool("report-only", false, "print only the resource report")
	flowTable := fs.Int("flow-table", 0, "include the flow-table mode with this many buckets (power of two >= 4; 0 disables)")
	hh := fs.Bool("hh", false, "include the heavy-hitter promotion mode")
	noVariance := fs.Bool("no-variance", false, "drop the variance/sqrt/alert logic (counting-only program)")
	emitP4 := fs.Bool("p416", false, "emit P4-16 source for the v1model architecture instead of the IR listing")
	resources := fs.Bool("resources", false, "print the stage placement against the target model instead of the listing")
	target := fs.String("target", "", "target-model JSON for -resources (default: the built-in pisa-3pass model)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := stat4p4.Options{Slots: *slots, Size: *size, Stages: *stages, Echo: *echo, Strict: *strict,
		HeavyHitter: *hh, NoVariance: *noVariance}
	if *flowTable > 0 {
		if *flowTable < 4 || *flowTable&(*flowTable-1) != 0 {
			fmt.Fprintf(stderr, "flow-table buckets %d: need a power of two >= 4\n", *flowTable)
			return 2
		}
		opts.FlowTable = true
		opts.FlowTableSize = *flowTable
	}
	lib := stat4p4.Build(opts)
	if *emitP4 {
		fmt.Fprint(stdout, stat4p4.EmitP416(lib))
		return 0
	}
	if *resources {
		tm := p4.DefaultTargetModel()
		if *target != "" {
			var err error
			if tm, err = p4.LoadTargetModel(*target); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
		rep, err := p4.AllocateStages(lib.Prog, tm)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprint(stdout, formatStageReport(rep))
		if !rep.Fit {
			return 1
		}
		return 0
	}
	if !*reportOnly {
		fmt.Fprint(stdout, p4.Format(lib.Prog))
		fmt.Fprintln(stdout)
	}
	printResourceReport(stdout, p4.AnalyzeProgram(lib.Prog))
	return 0
}

func printResourceReport(w io.Writer, r p4.ResourceReport) {
	fmt.Fprintf(w, "resources: %d fields, %d actions, %d tables, %d registers\n",
		r.NumFields, r.NumActions, r.NumTables, r.NumRegisters)
	fmt.Fprintf(w, "           %d register bytes + %d table bytes = %.1f KB\n",
		r.RegisterBytes, r.TableBytes, float64(r.TotalBytes)/1024)
	fmt.Fprintf(w, "           match-rule dependencies: %d, longest dependency chain: %d\n",
		r.MatchRuleDependencies, r.LongestDepChain)
}

// formatStageReport renders the stage-placement table: one row per occupied
// stage with its resource use, then the fit verdict against the model and
// the embedded static resource report.
func formatStageReport(rep *p4.StageReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %q: %d stages, per stage: %d ALUs, %d hash, %d reg-actions, %d tables, %d KiB SRAM\n",
		rep.Model.Name, rep.Model.Stages, rep.Model.ALUsPerStage, rep.Model.HashUnitsPerStage,
		rep.Model.RegActionsPerStage, rep.Model.TablesPerStage, rep.Model.SRAMPerStageBytes/1024)
	fmt.Fprintf(&b, "%5s  %4s  %4s  %7s  %9s  %s\n", "stage", "alus", "hash", "regacts", "sram", "tables / registers")
	for i, su := range rep.Stages {
		var what []string
		if len(su.Tables) > 0 {
			what = append(what, "tables: "+strings.Join(su.Tables, ","))
		}
		if len(su.Registers) > 0 {
			what = append(what, "regs: "+strings.Join(su.Registers, ","))
		}
		fmt.Fprintf(&b, "%5d  %4d  %4d  %7d  %8dB  %s\n",
			i, su.ALUs, su.HashUnits, su.RegActions, su.SRAMBytes, strings.Join(what, "  "))
	}
	fmt.Fprintf(&b, "stages used: %d of %d", rep.StagesUsed, rep.Model.Stages)
	if rep.Fit {
		b.WriteString("  [fits]\n")
	} else {
		b.WriteString("  [DOES NOT FIT]\n")
		for _, v := range rep.Violations {
			fmt.Fprintf(&b, "  violation: %s\n", v)
		}
	}
	fmt.Fprintf(&b, "resources: %d fields, %d actions, %d tables, %d registers; %d register bytes + %d table bytes; longest chain %d\n",
		rep.NumFields, rep.NumActions, rep.NumTables, rep.NumRegisters,
		rep.RegisterBytes, rep.TableBytes, rep.LongestDepChain)
	return b.String()
}
