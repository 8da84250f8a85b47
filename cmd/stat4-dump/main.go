// Command stat4-dump prints an emitted Stat4 P4 program as a readable
// pseudo-P4 listing together with its resource report — useful for
// inspecting what the emitter actually generates: a registered catalog row
// (stat4p4.Registered) or the options of an app config.
//
//	stat4-dump                                   # the "default" row: 8 slots x 256 cells, two stages
//	stat4-dump -program strict -report-only
//	stat4-dump -resources                        # stage placement against the target model
//	stat4-dump -resources -target configs/lint-target.json
//	stat4-dump -program flowtable -resources
//	stat4-dump -program entropy-hh -resources    # stat4d's program
//	stat4-dump -config configs/ddos-sparse.json -p416
package main

import (
	"bytes"
	"cmp"
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
// stdout, and returns the exit status — 2 on a usage, config or target
// error, 1 when -resources finds the program does not fit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stat4-dump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	program := fs.String("program", "", `catalog row to build (stat4p4.Registered; default "default")`)
	config := fs.String("config", "", "build the options of this JSON app config instead of a catalog row")
	reportOnly := fs.Bool("report-only", false, "print only the resource report")
	emitP4 := fs.Bool("p416", false, "emit P4-16 source for the v1model architecture instead of the IR listing")
	resources := fs.Bool("resources", false, "print the stage placement against the target model instead of the listing")
	target := fs.String("target", "", "target-model JSON for -resources (default: the built-in pisa-3pass model)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts, err := options(*program, *config)
	if err == nil {
		err = opts.Check()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	lib := stat4p4.Build(opts)
	if *emitP4 {
		fmt.Fprint(stdout, stat4p4.EmitP416(lib))
		return 0
	}
	if *resources {
		tm := p4.DefaultTargetModel()
		if *target != "" {
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

// options is the sizing to build: the app config's when a path is given,
// the named catalog row's otherwise.
func options(program, config string) (stat4p4.Options, error) {
	if config == "" {
		var names []string
		for _, rp := range stat4p4.Registered() {
			if rp.Name == cmp.Or(program, "default") {
				return rp.Opts, nil
			}
			names = append(names, rp.Name)
		}
		return stat4p4.Options{}, fmt.Errorf("stat4-dump: unknown program %q (have %s)", program, strings.Join(names, ", "))
	}
	if program != "" {
		return stat4p4.Options{}, errors.New("stat4-dump: -program and -config are exclusive")
	}
	data, err := os.ReadFile(config)
	if err != nil {
		return stat4p4.Options{}, err
	}
	cfg, err := stat4p4.LoadAppConfig(bytes.NewReader(data))
	if err != nil {
		return stat4p4.Options{}, err
	}
	return cfg.Options, nil
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
