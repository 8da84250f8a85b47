// Command stat4-casestudy runs the Section 4 detection-and-drill-down
// experiment (Figure 6) in virtual time: load-balanced traffic to 36
// destinations in six /24 subnets of 10.0.0.0/8, a randomized volumetric
// spike toward one destination, in-switch detection on a circular window of
// packet-rate intervals, and a controller that drills down to the /24 and
// then the destination by retuning binding tables.
//
//	stat4-casestudy -runs 5 -interval-shift 23 -window 100
//	stat4-casestudy -sweep -runs 3
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"

	"stat4/internal/experiments"
	"stat4/internal/telemetry"
)

// options carries every knob main parses from flags; run takes it whole so
// tests drive the command through the same path as the CLI.
type options struct {
	runs        int
	shift       uint
	window      int
	perInterval float64
	ctrlMs      uint64
	sweep       bool
	seed        int64
	metrics     bool
	metricsOut  string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stat4-casestudy: ")
	var opts options
	flag.IntVar(&opts.runs, "runs", 5, "repetitions")
	flag.UintVar(&opts.shift, "interval-shift", 23, "interval length exponent: 2^shift ns (23 ≈ 8ms)")
	flag.IntVar(&opts.window, "window", 100, "circular buffer length in intervals")
	flag.Float64Var(&opts.perInterval, "packets-per-interval", 0, "baseline packets per interval (0: experiment default)")
	flag.Uint64Var(&opts.ctrlMs, "ctrl-delay-ms", 400, "one-way switch-controller latency")
	flag.BoolVar(&opts.sweep, "sweep", false, "run the interval/window sweep instead")
	flag.Int64Var(&opts.seed, "seed", 1, "base seed")
	flag.BoolVar(&opts.metrics, "metrics", false, "print the telemetry exposition after the runs")
	flag.StringVar(&opts.metricsOut, "metrics-out", "", "write the telemetry snapshot as JSON to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address during the runs")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	if err := run(os.Stdout, opts); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, opts options) error {
	var pipeline *telemetry.Pipeline
	var reg *telemetry.Registry
	if opts.metrics || opts.metricsOut != "" {
		pipeline = telemetry.NewPipeline()
		reg = telemetry.NewRegistry("stat4_casestudy")
		pipeline.Register(reg)
	}

	if opts.sweep {
		rows, err := experiments.CaseStudySweep(opts.runs, opts.seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatCaseStudySweep(rows))
		fmt.Fprintln(w, "\npaper: detection in the first interval after the spike in all runs;")
		fmt.Fprintln(w, "pinpointing the destination typically takes 2-3 seconds")
		return nil
	}

	firstInterval, hostCorrect := 0, 0
	for r := 0; r < opts.runs; r++ {
		res, err := experiments.CaseStudy(experiments.CaseStudyParams{
			IntervalShift:      opts.shift,
			WindowSize:         opts.window,
			PacketsPerInterval: opts.perInterval,
			CtrlDelay:          opts.ctrlMs * 1e6,
			Seed:               opts.seed + int64(r)*7919,
			Telemetry:          pipeline,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "run %d: spike at %.3fs -> %v\n", r, float64(res.SpikeOnset)/1e9, res.SpikeTarget)
		for _, l := range res.Log {
			fmt.Fprintln(w, "  ", l)
		}
		fmt.Fprintf(w, "   detected=%v first-interval=%v subnet-correct=%v host-correct=%v pinpoint=%.2fs\n",
			res.Detected, res.DetectionIntervalLag <= 1, res.SubnetCorrect, res.HostCorrect,
			float64(res.PinpointNs)/1e9)
		if res.Detected && res.DetectionIntervalLag <= 1 {
			firstInterval++
		}
		if res.HostCorrect {
			hostCorrect++
		}
	}
	fmt.Fprintf(w, "\nsummary: %d/%d detected in the first interval, %d/%d destinations pinpointed correctly\n",
		firstInterval, opts.runs, hostCorrect, opts.runs)

	if reg != nil {
		if opts.metrics {
			if err := reg.WriteProm(w); err != nil {
				return err
			}
		}
		if opts.metricsOut != "" {
			f, err := os.Create(opts.metricsOut)
			if err != nil {
				return err
			}
			if err := reg.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
