// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (see the per-experiment index in
// DESIGN.md). The cmd tools, integration tests and benchmarks all call into
// this package so the printed rows come from one implementation.
package experiments

import (
	"fmt"
	"math/rand"

	"stat4/internal/controller"
	"stat4/internal/netem"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// CaseStudyParams configures one Section 4 run. Zero values pick the
// paper's defaults.
type CaseStudyParams struct {
	// IntervalShift sets the window interval to 2^IntervalShift ns
	// (default 23 ≈ 8.4 ms, the paper's 8 ms default).
	IntervalShift uint
	// WindowSize is the circular buffer length (default 100 intervals).
	WindowSize int
	// PacketsPerInterval sets the load-balanced rate so each interval
	// holds roughly this many packets (default 200).
	PacketsPerInterval float64
	// SpikeFactor is the spike rate as a multiple of the base rate
	// (default 4).
	SpikeFactor float64
	// CtrlDelay is the one-way switch↔controller latency (default 400 ms,
	// calibrated to the slow digest-processing and table-write path the
	// paper blames for the 2–3 s drill-down: "because of the interaction
	// between the control and data planes").
	CtrlDelay uint64
	// Seed randomises the spike onset and target.
	Seed int64

	// Telemetry, when set, instruments the whole pipeline: the switch
	// observer (per-packet cost, digest emit/drop), the netem node
	// observables (control-channel latency, digest-queue occupancy), the
	// simulator's event-queue depth and the controller's phase timeline.
	// Recorders accumulate across runs when the same bundle is reused.
	Telemetry *telemetry.Pipeline
}

func (p *CaseStudyParams) defaults() {
	if p.IntervalShift == 0 {
		p.IntervalShift = 23
	}
	if p.WindowSize == 0 {
		p.WindowSize = 100
	}
	if p.PacketsPerInterval == 0 {
		p.PacketsPerInterval = 200
	}
	if p.SpikeFactor == 0 {
		p.SpikeFactor = 4
	}
	if p.CtrlDelay == 0 {
		p.CtrlDelay = 400e6
	}
}

// CaseStudyResult reports one run's outcome.
type CaseStudyResult struct {
	Params CaseStudyParams

	SpikeOnset  uint64
	SpikeTarget packet.IP4

	Detected         bool
	DetectedSwitchTs uint64
	// DetectionIntervalLag is how many interval boundaries after the
	// spike's onset interval the detection fired; 1 means "the first
	// interval after the start of the spike", the paper's headline.
	DetectionIntervalLag int64

	SubnetIdentified bool
	SubnetCorrect    bool
	HostIdentified   bool
	HostCorrect      bool
	// PinpointNs is the virtual time from spike onset to destination
	// identification (the paper's 2–3 s).
	PinpointNs uint64

	Log []string
}

// CaseStudy runs one detection-and-drill-down experiment (Figure 6) in
// virtual time and reports what happened.
func CaseStudy(params CaseStudyParams) (CaseStudyResult, error) {
	params.defaults()
	res := CaseStudyResult{Params: params}

	intervalNs := uint64(1) << params.IntervalShift
	baseRate := params.PacketsPerInterval * 1e9 / float64(intervalNs)
	rng := rand.New(rand.NewSource(params.Seed))

	dests := traffic.CaseStudyDests()
	target := dests[rng.Intn(len(dests))]
	res.SpikeTarget = target

	// The spike starts at a randomised time after the window has filled.
	fill := uint64(params.WindowSize+5) * intervalNs
	onset := fill + uint64(rng.Int63n(int64(10*intervalNs)))
	res.SpikeOnset = onset
	// Enough time after onset for two control-plane round trips plus
	// warmups.
	duration := onset + 8*params.CtrlDelay + 50*intervalNs

	lib := stat4p4.Build(stat4p4.Options{Slots: 2, Size: 256, Stages: 2})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return res, err
	}
	slash8 := packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8)
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.DstIn(slash8),
		IntervalShift: params.IntervalShift, Capacity: params.WindowSize, K: 2}); err != nil {
		return res, err
	}

	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), params.CtrlDelay)
	var timeline *telemetry.Timeline
	if params.Telemetry != nil {
		rt.Switch().SetObserver(params.Telemetry.Switch)
		node.Metrics = params.Telemetry.Node
		sim.Depth = params.Telemetry.Queue
		timeline = params.Telemetry.Phases
	}
	dd := controller.NewDrillDown(controller.Config{
		RT:            rt,
		Sched:         sim,
		CtrlDelay:     params.CtrlDelay,
		Monitored:     slash8,
		WindowSlot:    0,
		DrillStage:    1,
		DrillSlot:     1,
		SubnetBits:    24,
		SubnetDomain:  256,
		K:             2,
		Warmup:        20 * intervalNs,
		MonitorWarmup: fill,
		Timeline:      timeline,
	})
	node.OnDigest = dd.HandleDigest

	load := &traffic.LoadBalanced{Dests: dests, Rate: baseRate, End: duration, Seed: params.Seed + 1, Jitter: 0.5}
	spike := &traffic.Spike{Dest: target, Rate: baseRate * params.SpikeFactor, Start: onset, End: duration, Seed: params.Seed + 2, Jitter: 0.5}
	node.InjectStream(traffic.Merge(load, spike), 1)
	sim.Run()

	r := dd.Result()
	res.Log = dd.Log
	if dd.Phase() > controller.PhaseMonitoring {
		res.Detected = true
		res.DetectedSwitchTs = r.DetectedSwitchTs
		res.DetectionIntervalLag = int64(r.DetectedSwitchTs>>params.IntervalShift) - int64(onset>>params.IntervalShift)
	}
	if dd.Phase() > controller.PhaseLocateSubnet {
		res.SubnetIdentified = true
		res.SubnetCorrect = r.Subnet.Contains(target)
	}
	if dd.Phase() == controller.PhaseDone {
		res.HostIdentified = true
		res.HostCorrect = r.Host == target
		res.PinpointNs = r.HostAt - onset
	}
	return res, nil
}

// CaseStudySweep repeats the experiment across interval lengths and window
// sizes, the paper's "time intervals ranging from 8 ms to 2 s, and number of
// intervals between 10 and 100".
type CaseStudySweepRow struct {
	IntervalShift uint
	WindowSize    int
	Runs          int
	DetectedFirst int // runs detected in the first interval after onset
	Detected      int
	HostCorrect   int
	MeanPinpointS float64
}

// SweepConfig is one (interval, window) point of the sweep.
type SweepConfig struct {
	Shift  uint
	Window int
}

// DefaultSweep covers the paper's ranges: intervals 8 ms – 2 s, windows
// 10 – 100.
var DefaultSweep = []SweepConfig{
	{23, 100}, // ~8 ms × 100
	{25, 50},  // ~34 ms × 50
	{27, 25},  // ~134 ms × 25
	{29, 10},  // ~537 ms × 10
	{31, 10},  // ~2.1 s × 10
}

// CaseStudySweep runs DefaultSweep with `runs` repetitions per configuration.
func CaseStudySweep(runs int, seed int64) ([]CaseStudySweepRow, error) {
	return CaseStudySweepConfigs(DefaultSweep, runs, seed)
}

// CaseStudySweepConfigs runs the given configurations. The (config, run)
// grid fans out over the worker pool — each run owns its switch, controller
// and simulator — and the per-config reduction walks runs in order, so the
// rows match the serial sweep exactly.
func CaseStudySweepConfigs(configs []SweepConfig, runs int, seed int64) ([]CaseStudySweepRow, error) {
	type runOut struct {
		res CaseStudyResult
		err error
	}
	outs := make([]runOut, len(configs)*runs)
	forEach(len(outs), func(i int) {
		cfg := configs[i/runs]
		res, err := CaseStudy(CaseStudyParams{
			IntervalShift: cfg.Shift,
			WindowSize:    cfg.Window,
			Seed:          seed + int64(i%runs)*7919,
		})
		outs[i] = runOut{res: res, err: err}
	})

	var rows []CaseStudySweepRow
	for ci, cfg := range configs {
		row := CaseStudySweepRow{IntervalShift: cfg.Shift, WindowSize: cfg.Window, Runs: runs}
		var pinpoint float64
		for r := 0; r < runs; r++ {
			o := outs[ci*runs+r]
			res, err := o.res, o.err
			if err != nil {
				return nil, err
			}
			if res.Detected {
				row.Detected++
				if res.DetectionIntervalLag <= 1 {
					row.DetectedFirst++
				}
			}
			if res.HostCorrect {
				row.HostCorrect++
				pinpoint += float64(res.PinpointNs) / 1e9
			}
		}
		if row.HostCorrect > 0 {
			row.MeanPinpointS = pinpoint / float64(row.HostCorrect)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatCaseStudySweep renders the sweep like the paper reports it.
func FormatCaseStudySweep(rows []CaseStudySweepRow) string {
	out := "interval      window   detected   1st-interval   host-correct   pinpoint\n"
	for _, r := range rows {
		out += fmt.Sprintf("%-12s  %6d   %4d/%-4d  %7d/%-4d   %7d/%-4d   %6.2fs\n",
			fmt.Sprintf("%.0fms", float64(uint64(1)<<r.IntervalShift)/1e6),
			r.WindowSize, r.Detected, r.Runs, r.DetectedFirst, r.Runs, r.HostCorrect, r.Runs, r.MeanPinpointS)
	}
	return out
}
