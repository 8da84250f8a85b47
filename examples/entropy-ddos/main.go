// Entropy-collapse DDoS detection: the switch maintains the Shannon entropy
// of the destination-group distribution entirely in fixed-point integer
// arithmetic (f·log2fix(f) folded incrementally into a per-slot sum) and
// fires an alert digest when the mix collapses below a threshold — the
// classic signature of a volumetric flood concentrating traffic on one
// victim, caught without the controller polling a single counter.
package main

import (
	"fmt"
	"io"
	"os"

	"stat4/internal/detect"
	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// entropyConfig sizes the scenario; main runs the full two-second trace, the
// smoke test a scaled-down one with the same rate ratio.
type entropyConfig struct {
	Groups     int     // destination groups in play (of the 256 tracked)
	WebRate    float64 // background packets per second
	FloodRate  float64
	FloodStart uint64
	EndNs      uint64
	CheckEvery uint64 // power of two; doubles as the warmup length
}

func defaultEntropyConfig() entropyConfig {
	return entropyConfig{
		Groups:     200,
		WebRate:    50000,
		FloodRate:  400000,
		FloodStart: 1e9,
		EndNs:      2e9,
		CheckEvery: 1024,
	}
}

// runStats is what a replay yields for quality scoring: the alert stream on
// controller arrival times (detect.Alert timestamps include the 1 ms control
// link) plus the final entropy snapshot.
type runStats struct {
	Alerts  []detect.Alert
	Packets uint64
	Bits    float64
}

func run(w io.Writer, cfg entropyConfig) (runStats, error) {
	var stats runStats
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1, Entropy: true, DigestBuf: 4096})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return stats, err
	}
	frac := lib.Opts.EntropyFrac

	// Group = low byte of the destination; alert when the mix drops below
	// 4 bits (a healthy spread over cfg.Groups destinations sits near
	// log2(Groups) ≈ 7.6 bits), checking every CheckEvery-th packet.
	h0 := uint64(4) << frac
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	if _, err := rt.Bind(stat4p4.Binding{Kind: "entropy-dst", Match: stat4p4.AllIPv4(),
		Base: dstBase, Size: 256, H0: h0, CheckEvery: cfg.CheckEvery}); err != nil {
		return stats, err
	}

	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), 1e6 /* 1 ms to controller */)

	var alerts []p4.Digest
	node.OnDigest = func(now uint64, d p4.Digest) {
		if d.ID == stat4p4.DigestEntropy {
			alerts = append(alerts, d)
			stats.Alerts = append(stats.Alerts, detect.Alert{TsNs: now})
		}
	}

	// Balanced background over the group space, then a flood at one victim.
	dests := make([]packet.IP4, cfg.Groups)
	for i := range dests {
		dests[i] = packet.ParseIP4(10, 0, 0, byte(i))
	}
	victim := dests[77]
	web := &traffic.LoadBalanced{Dests: dests, Rate: cfg.WebRate, End: cfg.EndNs, Seed: 1}
	flood := &traffic.Spike{Dest: victim, Rate: cfg.FloodRate, Start: cfg.FloodStart, End: cfg.EndNs, Seed: 2}
	node.InjectStream(traffic.Merge(web, flood), 1)
	sim.Run()

	snap, err := stat4p4.Read(rt, stat4p4.Entropy, 0)
	if err != nil {
		return stats, err
	}
	stats.Packets, stats.Bits = snap.Total, snap.Bits
	fmt.Fprintf(w, "final mix: %d packets, %.3f bits of destination entropy (threshold 4)\n",
		snap.Total, snap.Bits)
	if len(alerts) == 0 {
		fmt.Fprintln(w, "collapse not detected — something is wrong")
		return stats, nil
	}
	first := alerts[0]
	ts := first.Values[4]
	scaled := float64(first.Values[2]) / (float64(first.Values[1]) * float64(uint64(1)<<frac))
	fmt.Fprintf(w, "flood started at %.3fs; first in-switch alert at %.3fs (%.1fms after onset) reporting %.3f bits\n",
		float64(cfg.FloodStart)/1e9, float64(ts)/1e9, (float64(ts)-float64(cfg.FloodStart))/1e6, scaled)
	fmt.Fprintf(w, "%d entropy digests pushed to the controller in total\n", len(alerts))
	return stats, nil
}

func main() {
	if _, err := run(os.Stdout, defaultEntropyConfig()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
