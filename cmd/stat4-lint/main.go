// Command stat4-lint enforces the switch-feasibility invariants of "Stats
// 101 in P4" on the Go datapath: functions marked //stat4:datapath (and
// everything they transitively call within the module) must be integer-only,
// division-free, loop-free, bounded, allocation-free straight-line code, and
// variables under sync/atomic discipline must stay under it module-wide. On
// top of the source analyzers, the program-level passes gate every
// registered Stat4 program: stagebudget places its control flow onto a PISA
// target model's stages, and mergelaw checks the cross-replica merge
// discipline of its registers. The standalone run also builds every binary of
// the module and reports each function none of them links (reachable). See
// internal/lint for the analyzers.
//
// Standalone (whole-module, authoritative):
//
//	go run ./cmd/stat4-lint ./...
//	go run ./cmd/stat4-lint -target configs/lint-target.json ./...
//
// As a go vet tool (modular, per package; the program gate runs when the
// stat4p4 package itself is vetted):
//
//	go build -o stat4-lint ./cmd/stat4-lint
//	go vet -vettool=$(pwd)/stat4-lint ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"stat4/internal/lint"
	"stat4/internal/p4"
	"stat4/internal/stat4p4"
)

func main() {
	// The go vet protocol probes the tool before use: `-V=full` must print
	// a stable version line for build caching, `-flags` the tool's flag
	// schema, and a lone *.cfg argument selects modular unit mode.
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			printVersion()
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return
		}
	}
	if args := os.Args[1:]; len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnit(args[0])
		return
	}

	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	dir := flag.String("C", "", "change to this directory before loading packages")
	target := flag.String("target", "", "target-model JSON for the stagebudget gate (default: the built-in pisa-3pass model)")
	programs := flag.Bool("programs", true, "run the stagebudget and mergelaw gates over every registered program")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: stat4-lint [-json] [-C dir] [-target model.json] [-programs=false] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	tm := p4.DefaultTargetModel()
	if *target != "" {
		var err error
		if tm, err = p4.LoadTargetModel(*target); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	mod, err := lint.LoadModule(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	linked, err := lint.Link(mod.Dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(mod, append(lint.Analyzers(), lint.Reachable(linked)))
	if *programs {
		diags = append(diags, lint.RunPrograms(registeredCases(), tm)...)
	}
	emit(diags, *jsonOut)
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// registeredCases adapts the stat4p4 catalog to the program-level passes:
// every registered configuration is built and gated.
func registeredCases() []lint.ProgramCase {
	var cases []lint.ProgramCase
	for _, rp := range stat4p4.Registered() {
		lib := stat4p4.Build(rp.Opts)
		cases = append(cases, lint.ProgramCase{
			Name:       rp.Name,
			Prog:       lib.Prog,
			Recomputed: lib.RecomputedRegisters(),
		})
	}
	return cases
}

// runUnit is the `go vet -vettool` entry point: analyze one package
// described by a vet config file. Vetting the stat4p4 package also runs the
// program-level gates — that is the package whose code emits the programs,
// so its vet run is where a budget regression belongs.
func runUnit(cfgFile string) {
	diags, err := lint.RunUnit(cfgFile, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if unitImportPath(cfgFile) == "stat4/internal/stat4p4" {
		diags = append(diags, lint.RunPrograms(registeredCases(), p4.DefaultTargetModel())...)
	}
	if len(diags) > 0 {
		emit(diags, false)
		os.Exit(2) // the exit code `go vet` treats as "diagnostics found"
	}
}

// unitImportPath peeks at the vet config's ImportPath; a malformed config
// will fail properly inside RunUnit, so errors here just mean "not stat4p4".
func unitImportPath(cfgFile string) string {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return ""
	}
	var cfg struct{ ImportPath string }
	if err := json.Unmarshal(data, &cfg); err != nil {
		return ""
	}
	return cfg.ImportPath
}

func emit(diags []lint.Diagnostic, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(lint.ToJSON(diags))
		return
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
}

// printVersion emits the `-V=full` line `go vet` hashes into its build
// cache key; including a digest of the executable invalidates cached vet
// results when the tool itself changes.
func printVersion() {
	progname := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil))
}
