// Command blast is stat4-blast, the repository's benchmark: a single-process
// soak driver and layer prober for the stat4d datapath. It builds the
// datapath exactly as cmd/stat4d does, feeds it pre-encoded records over a
// real unix-domain socket served by Engine.ServeConn, and observes it through
// public functions only. See bench/README.md.
//
//	go run ./bench/blast                          # every workload, one report
//	go run ./bench/blast -workload bulk-dst24-1s -seed 3 -seconds 26 -trace 0
//	go run ./bench/blast -compare A.json B.json   # deltas against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in-process and end with the result line (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 11, "regenerates all traffic")
		seconds = flag.Float64("seconds", 26, "measured window per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, nothing watching; 1: per-layer metrics, sampled and staged")
		quick   = flag.Bool("quick", false, "test sizing: small trace and flow table")
		out     = flag.String("out", "bench/out", "directory for the socket, trace and report files")
		compare = flag.Bool("compare", false, "compare two suite reports: -compare A.json B.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareReports(os.Stdout, flag.Args())
	case *name == "":
		err = runSuite(*seed, *seconds, *quick, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace, *quick, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "blast:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry point: one workload, one trace mode, the
// report on standard output and the result object as its last line.
func runOne(name string, seed int64, seconds float64, trace int, quick bool, out string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("seconds must be positive")
	}
	c := &config{w: *w, seed: seed, seconds: seconds, quick: quick, outDir: out, log: os.Stdout}
	var res result
	var err error
	switch trace {
	case 0:
		res, err = runEndToEnd(c)
	case 1:
		res, err = runLayers(c)
	default:
		err = fmt.Errorf("trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}
