package experiments

import (
	"fmt"

	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// ArchRow is one point of the architecture comparison (the quantified
// Figure 1 / Section 1 argument): the detection delay and controller-channel
// overhead of sketch-only pulling at one period, or of in-switch pushing.
type ArchRow struct {
	Arch string
	// PullPeriodMs is 0 for the in-switch row.
	PullPeriodMs float64
	// DetectDelayMs is spike onset → controller awareness, averaged over
	// runs that detected (-1 if never detected).
	DetectDelayMs float64
	// OverheadKBps is the switch→controller channel load during normal
	// operation. In-switch pushing is quiet until an anomaly happens.
	OverheadKBps float64
	Detected     int
	Runs         int
}

// ArchParams configures the comparison.
type ArchParams struct {
	IntervalShift uint   // window interval = 2^shift ns (default 23)
	WindowSize    int    // default 100
	Runs          int    // repetitions per row (default 3)
	LinkDelayNs   uint64 // one-way switch↔controller latency (default 1 ms)
	PerRegNs      uint64 // per-register read cost (default 2 µs)
	Seed          int64
}

func (p *ArchParams) defaults() {
	if p.IntervalShift == 0 {
		p.IntervalShift = 23
	}
	if p.WindowSize == 0 {
		p.WindowSize = 100
	}
	if p.Runs == 0 {
		p.Runs = 3
	}
	if p.LinkDelayNs == 0 {
		p.LinkDelayNs = 1e6
	}
	if p.PerRegNs == 0 {
		p.PerRegNs = 2000
	}
}

// ArchComparison sweeps sketch-only pull periods against in-switch pushing
// on the same spike workload.
func ArchComparison(params ArchParams) ([]ArchRow, error) {
	params.defaults()
	periods := []uint64{1e6, 10e6, 100e6, 1e9} // 1 ms … 1 s

	// Every (period, run) cell and every push run builds its own switch and
	// simulator, so the whole comparison fans out over the worker pool; the
	// reduction below walks the cells in the old serial order (including the
	// last-run-wins OverheadKBps assignment), so rows are identical.
	type pullOut struct {
		delay    float64
		detected bool
		overhead float64
		err      error
	}
	type pushOut struct {
		delay    float64
		detected bool
		err      error
	}
	pulls := make([]pullOut, len(periods)*params.Runs)
	pushes := make([]pushOut, params.Runs)
	forEach(len(pulls)+len(pushes), func(i int) {
		if i < len(pulls) {
			period := periods[i/params.Runs]
			seed := params.Seed + int64(i%params.Runs)*31
			o := pullOut{}
			o.delay, o.detected, o.overhead, o.err = archRun(params, period, seed)
			pulls[i] = o
		} else {
			r := i - len(pulls)
			o := pushOut{}
			o.delay, o.detected, o.err = pushRun(params, params.Seed+int64(r)*31)
			pushes[r] = o
		}
	})

	var rows []ArchRow
	for pi, period := range periods {
		row := ArchRow{Arch: "sketch-only", PullPeriodMs: float64(period) / 1e6, Runs: params.Runs}
		var delaySum float64
		for r := 0; r < params.Runs; r++ {
			o := pulls[pi*params.Runs+r]
			if o.err != nil {
				return nil, o.err
			}
			row.OverheadKBps = o.overhead
			if o.detected {
				row.Detected++
				delaySum += o.delay
			}
		}
		if row.Detected > 0 {
			row.DetectDelayMs = delaySum / float64(row.Detected)
		} else {
			row.DetectDelayMs = -1
		}
		rows = append(rows, row)
	}

	// In-switch push row.
	push := ArchRow{Arch: "in-switch (Stat4)", Runs: params.Runs}
	var delaySum float64
	for _, o := range pushes {
		if o.err != nil {
			return nil, o.err
		}
		if o.detected {
			push.Detected++
			delaySum += o.delay
		}
	}
	if push.Detected > 0 {
		push.DetectDelayMs = delaySum / float64(push.Detected)
	} else {
		push.DetectDelayMs = -1
	}
	rows = append(rows, push)
	return rows, nil
}

// archSetup builds the common workload: a full window of stable traffic,
// then a 4x spike. It returns the spike onset and the end of the anomalous
// first interval, which is when the spike becomes theoretically detectable.
func archSetup(params ArchParams, seed int64) (rt *stat4p4.Runtime, sim *netem.Sim, node *netem.SwitchNode, onset, detectable, duration uint64, err error) {
	intervalNs := uint64(1) << params.IntervalShift
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	rt, err = stat4p4.NewRuntime(lib)
	if err != nil {
		return
	}
	slash8 := packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8)
	if _, err = rt.BindWindow(0, 0, stat4p4.DstIn(slash8), params.IntervalShift, params.WindowSize, 2); err != nil {
		return
	}
	sim = netem.NewSim()
	node = netem.NewSwitchNode(sim, rt.Sharded(), params.LinkDelayNs)

	fill := uint64(params.WindowSize+5) * intervalNs
	onset = fill + intervalNs/3
	// The spike is detectable when its first (anomalous) interval
	// completes.
	detectable = (onset>>params.IntervalShift + 1) << params.IntervalShift
	duration = onset + 30*intervalNs + 4e9

	baseRate := 200 * 1e9 / float64(intervalNs)
	dests := traffic.CaseStudyDests()
	load := &traffic.LoadBalanced{Dests: dests, Rate: baseRate, End: duration, Seed: seed + 1, Jitter: 0.5}
	spike := &traffic.Spike{Dest: dests[0], Rate: 4 * baseRate, Start: onset, End: duration, Seed: seed + 2, Jitter: 0.5}
	node.InjectStream(traffic.Merge(load, spike), 1)
	return
}

func archRun(params ArchParams, period uint64, seed int64) (delayMs float64, detected bool, overheadKBps float64, err error) {
	rt, sim, _, _, detectable, duration, err := archSetup(params, seed)
	if err != nil {
		return 0, false, 0, err
	}
	var detectAt uint64
	mon := &PullMonitor{
		Sim:       sim,
		RT:        rt,
		Slot:      0,
		Window:    params.WindowSize,
		Period:    period,
		PerRegNs:  params.PerRegNs,
		LinkDelay: params.LinkDelayNs,
		K:         2,
		OnDetect: func(now uint64, v uint64) {
			if detectAt == 0 && now >= detectable {
				detectAt = now
			}
		},
	}
	mon.Start(duration)
	sim.Run()
	overheadKBps = mon.OverheadBytesPerSec() / 1024
	if detectAt == 0 {
		return 0, false, overheadKBps, nil
	}
	return float64(detectAt-detectable) / 1e6, true, overheadKBps, nil
}

func pushRun(params ArchParams, seed int64) (delayMs float64, detected bool, err error) {
	rt, sim, node, _, detectable, _, err := archSetup(params, seed)
	if err != nil {
		return 0, false, err
	}
	_ = rt
	var detectAt uint64
	node.OnDigest = func(now uint64, d p4.Digest) {
		if detectAt == 0 && now >= detectable {
			detectAt = now
		}
	}
	sim.Run()
	if detectAt == 0 {
		return 0, false, nil
	}
	return float64(detectAt-detectable) / 1e6, true, nil
}

// FormatArch renders the comparison.
func FormatArch(rows []ArchRow) string {
	out := "architecture        pull period   detection delay   ctrl-channel overhead\n"
	for _, r := range rows {
		period := "—"
		if r.PullPeriodMs > 0 {
			period = fmt.Sprintf("%.0fms", r.PullPeriodMs)
		}
		delay := "not detected"
		if r.DetectDelayMs >= 0 {
			delay = fmt.Sprintf("%.2fms", r.DetectDelayMs)
		}
		out += fmt.Sprintf("%-19s %11s   %15s   %10.1f KB/s  (%d/%d runs)\n",
			r.Arch, period, delay, r.OverheadKBps, r.Detected, r.Runs)
	}
	out += "detection delay measured from the end of the first anomalous interval;\n"
	out += "overhead is steady-state switch-to-controller traffic before any anomaly\n"
	return out
}
