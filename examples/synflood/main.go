// SYN-flood detection (Table 1, row 3): the switch tracks the rate of
// connection-attempt SYNs per time interval in a circular window, checks
// each completed interval against mean + 2 sigma, and pushes an alert digest
// the moment a flood begins — entirely in the data plane.
package main

import (
	"fmt"
	"io"
	"os"

	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// floodConfig sizes the scenario: main runs the full two-second trace, the
// smoke test a scaled-down one with the same rate ratio.
type floodConfig struct {
	IntShift   uint // log2 of the interval width in ns
	Window     int  // stored intervals
	WebRate    float64
	FloodRate  float64
	FloodStart uint64
	EndNs      uint64
}

func defaultFloodConfig() floodConfig {
	return floodConfig{
		IntShift:   23, // ~8.4 ms intervals
		Window:     50,
		WebRate:    80000,
		FloodRate:  400000,
		FloodStart: 1e9,
		EndNs:      2e9,
	}
}

func run(w io.Writer, cfg floodConfig) error {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return err
	}
	// Bind the window to SYN packets only: the binding table matches the
	// parser's tcp.syn bit, so data packets don't touch the distribution.
	// k = 3 sigma: SYN arrivals from short web flows are bursty, so the
	// 2-sigma threshold of the smooth case study would false-alarm here.
	server := packet.NewPrefix(packet.ParseIP4(10, 0, 1, 0), 24)
	if _, err := rt.BindWindow(0, 0, stat4p4.SynTo(server), cfg.IntShift, cfg.Window, 3); err != nil {
		return err
	}

	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), 1e6 /* 1 ms to controller */)

	// Ignore alerts until the window has filled: with only a few stored
	// intervals the variance estimate is noisy (the case-study controller
	// does the same).
	warmup := uint64(cfg.Window+5) << uint64(cfg.IntShift)
	var alerts []uint64
	node.OnDigest = func(now uint64, d p4.Digest) {
		if d.ID == stat4p4.DigestAnomaly && d.Values[4] >= warmup {
			alerts = append(alerts, d.Values[4]) // switch timestamp
		}
	}

	// Background web traffic (SYN:data about 1:8) plus a flood partway in.
	dests := []packet.IP4{packet.ParseIP4(10, 0, 1, 6)}
	web := &traffic.WebMix{Dests: dests, Rate: cfg.WebRate, End: cfg.EndNs, Seed: 1}
	flood := &traffic.SynFlood{Dest: dests[0], Rate: cfg.FloodRate, Start: cfg.FloodStart, End: cfg.EndNs, Seed: 2}
	node.InjectStream(traffic.Merge(web, flood), 1)
	sim.Run()

	m, _ := stat4p4.Read(rt, stat4p4.Moments, 0)
	fmt.Fprintf(w, "SYN-rate window after the run: N=%d mean(NX)=%d sd=%d\n", m.N, m.Xsum, m.SD)
	if len(alerts) == 0 {
		fmt.Fprintln(w, "no flood detected — something is wrong")
		return nil
	}
	first := alerts[0]
	fmt.Fprintf(w, "flood started at %.3fs; first in-switch alert at %.3fs (%.1fms after onset)\n",
		float64(cfg.FloodStart)/1e9, float64(first)/1e9, (float64(first)-float64(cfg.FloodStart))/1e6)
	fmt.Fprintf(w, "%d alert digests pushed to the controller in total\n", len(alerts))
	return nil
}

func main() {
	if err := run(os.Stdout, defaultFloodConfig()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
