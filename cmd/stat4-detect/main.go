// Command stat4-detect runs the detection-quality matrix and emits the
// DETECT_<n>.json trajectory artifact: every (scenario × config × shards)
// cell of the internal/detect grid scored for time-to-detect,
// precision/recall/F1, drill-down accuracy and benign-twin false alarms,
// with baseline deltas and the pathological-dominance audit.
//
// Usage:
//
//	stat4-detect [-o DETECT_1.json] [-json] [-baseline DETECT_0.json]
//	             [-gate] [-tol 0.02] [-scale 1.0] [-seed 1]
//	             [-scenario name] [-config name] [-shards 1,4] [-q]
//
// -gate exits nonzero on any dominance violation or on a cell whose quality
// fell more than -tol below the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"stat4/internal/detect"
)

func main() {
	var (
		out      = flag.String("o", "", "write the report to this file")
		toStdout = flag.Bool("json", false, "write the report JSON to stdout")
		baseline = flag.String("baseline", "", "previous DETECT_<n>.json to diff against")
		gate     = flag.Bool("gate", false, "exit nonzero on dominance violations or baseline regressions")
		tol      = flag.Float64("tol", 0.02, "allowed absolute quality drop vs baseline before -gate fails")
		scale    = flag.Float64("scale", 1.0, "trace time scale in (0, 1]")
		seed     = flag.Int64("seed", 1, "scenario replay seed")
		scenario = flag.String("scenario", "", "run only this scenario")
		config   = flag.String("config", "", "run only this config")
		shards   = flag.String("shards", "1,4", "comma-separated shard counts")
		quiet    = flag.Bool("q", false, "suppress per-cell progress")
	)
	flag.Parse()

	grid := detect.DefaultGrid(*scale)
	grid.Seed = *seed
	if *scenario != "" {
		kept := grid.Scenarios[:0]
		for _, sc := range grid.Scenarios {
			if sc.Name == *scenario {
				kept = append(kept, sc)
			}
		}
		if len(kept) == 0 {
			fatalf("unknown scenario %q", *scenario)
		}
		grid.Scenarios = kept
	}
	if *config != "" {
		cfg, ok := detect.FindConfig(grid.Configs, *config)
		if !ok {
			fatalf("unknown config %q", *config)
		}
		grid.Configs = []detect.Config{cfg}
	}
	grid.Shards = grid.Shards[:0]
	for _, f := range strings.Split(*shards, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fatalf("bad -shards value %q", f)
		}
		grid.Shards = append(grid.Shards, n)
	}

	var base *detect.Report
	if *baseline != "" {
		rep, err := detect.LoadReport(*baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		base = rep
	}

	progress := func(i, n int, c detect.Cell) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%3d/%d] %s × %s × %d shards\n",
				i+1, n, c.Scenario.Name, c.Config.Name, c.Shards)
		}
	}
	results, err := detect.RunGrid(grid, progress)
	if err != nil {
		fatalf("%v", err)
	}
	rep := detect.BuildReport(grid, results, base)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if *toStdout || *out == "" {
		os.Stdout.Write(data)
	}

	if violations := rep.GateViolations(*tol); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "GATE: %s\n", v)
		}
		if *gate {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stat4-detect: "+format+"\n", args...)
	os.Exit(1)
}
