// Heavy-hitter identification by probabilistic recirculation: each packet
// flips a 2^-k coin in the data plane; winners take one extra pipeline pass
// that promotes their flow key into a small exact-count candidate table. A
// flow sending n packets is promoted with probability 1 − (1 − 2^-k)^n, so
// the elephants of a zipfian mix surface almost surely while mice rarely
// spend the recirculation budget — the switch names the top talkers without
// per-flow state.
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

// hhConfig sizes the scenario; the smoke test scales the duration down.
type hhConfig struct {
	Rate        float64 // aggregate packets per second
	EndNs       uint64
	SampleShift uint    // recirculation probability 2^-SampleShift
	ZipfS       float64 // source popularity skew
	Sources     uint64  // source population
}

func defaultHHConfig() hhConfig {
	return hhConfig{
		Rate:        200000,
		EndNs:       2e9,
		SampleShift: 6,
		ZipfS:       1.3,
		Sources:     4096,
	}
}

// stream builds the scenario's deterministic packet stream; run calls it
// twice — once to inject, once to tally the ground truth.
func (cfg hhConfig) stream() traffic.Stream {
	return &traffic.Sourced{
		Dest:   packet.ParseIP4(10, 0, 0, 1),
		Base:   packet.ParseIP4(198, 18, 0, 0),
		Values: traffic.ZipfValues(cfg.ZipfS, cfg.Sources, 77),
		Rate:   cfg.Rate,
		End:    cfg.EndNs,
		Seed:   3,
	}
}

// runStats is what a replay yields for quality scoring: the candidate table
// (heaviest first), the deterministic ground-truth tally and the true top
// talker.
type runStats struct {
	Candidates []stat4p4.Entry
	Tally      map[uint64]uint64
	Total      uint64
	TrueTop    uint64
}

func run(w io.Writer, cfg hhConfig) (runStats, error) {
	var stats runStats
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1, HeavyHitter: true, DigestBuf: 4096})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return stats, err
	}
	// Full /32 source keys, one promotion pass per 2^SampleShift packets.
	if _, err := rt.BindHeavyHitterSrc(0, 0, stat4p4.AllIPv4(), 0, cfg.SampleShift); err != nil {
		return stats, err
	}

	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), 1e6 /* 1 ms to controller */)

	var promotions []p4.Digest
	node.OnDigest = func(now uint64, d p4.Digest) {
		if d.ID == stat4p4.DigestHeavyHitter {
			promotions = append(promotions, d)
		}
	}
	node.InjectStream(cfg.stream(), 1)
	sim.Run()

	// Ground truth: replay the same deterministic stream and count per source.
	truth, total := detect.TallySrcs(cfg.stream())
	var top uint64
	for k, n := range truth {
		if n > truth[top] || (n == truth[top] && k < top) {
			top = k
		}
	}

	hh, err := stat4p4.Read(rt, stat4p4.HeavyHitters, 0)
	if err != nil {
		return stats, err
	}
	stats.Candidates, stats.Tally, stats.Total, stats.TrueTop = hh.Entries, truth, total, top
	sw := rt.Sharded().Stats()
	fmt.Fprintf(w, "%d packets, %d flows; %d recirculated (budget 2^-%d), %d candidates promoted\n",
		total, len(truth), sw.Recirculated, cfg.SampleShift, len(hh.Entries))
	if len(hh.Entries) == 0 {
		fmt.Fprintln(w, "no heavy hitters surfaced — something is wrong")
		return stats, nil
	}
	est := hh.Entries[0].Count << cfg.SampleShift
	fmt.Fprintf(w, "top candidate %v with %d promotions (≈%d packets); true top talker %v sent %d\n",
		packet.IP4(hh.Entries[0].Key), hh.Entries[0].Count, est, packet.IP4(top), truth[top])
	fmt.Fprintf(w, "%d promotion digests pushed; identification correct: %v\n",
		len(promotions), hh.Entries[0].Key == top)
	return stats, nil
}

func main() {
	if _, err := run(os.Stdout, defaultHHConfig()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
