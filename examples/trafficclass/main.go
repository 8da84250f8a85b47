// Traffic classification monitoring (Table 1, row 5): the switch tracks
// packets by type and the controller watches the distribution's in-switch
// statistical measures for drift — the paper's signal that an in-network ML
// classifier's model has gone stale.
//
// This example also demonstrates a statistical subtlety of the mean + k·σ
// outlier check: over a frequency distribution with N distinct values, the
// largest possible z-score is (N−1)/√N, so with only two classes (TCP vs
// UDP, max z ≈ 0.71) no threshold k ≥ 1 can ever fire. The case study's
// six subnets clear k = 2 only barely (max z ≈ 2.04). For few-class
// distributions the right drift signals are the ones read here: the median
// marker of a finer-grained companion distribution and the measures
// themselves — all maintained in the switch, fetched with a handful of
// register reads instead of a sketch pull.
package main

import (
	"fmt"
	"log"

	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

func main() {
	lib := stat4p4.Build(stat4p4.Options{Slots: 2, Size: 64, Stages: 2})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		log.Fatal(err)
	}
	// Slot 0: packets by IP protocol (TCP = 6, UDP = 17). The outlier
	// check stays off (k = 0) — see the package comment for why it cannot
	// work over two classes.
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-proto", Match: stat4p4.AllIPv4(),
		Size: 64, PA: 1, PB: 1}); err != nil {
		log.Fatal(err)
	}
	// Slot 1: frame sizes in 64-byte buckets with a median marker — a
	// finer-grained view of "packets by type" whose median shifts when the
	// traffic mix changes.
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-len", Stage: 1, Slot: 1, Match: stat4p4.AllIPv4(),
		Shift: 6, Size: 64, PA: 1, PB: 1}); err != nil {
		log.Fatal(err)
	}
	sw := rt.Sharded()

	type snapshot struct {
		tcp, udp, median, sd, moves uint64
	}
	snap := func() snapshot {
		counters, _ := stat4p4.Read(rt, stat4p4.Counters, 0)
		sizes, _ := stat4p4.Read(rt, stat4p4.Moments, 1)
		return snapshot{
			tcp: counters[6], udp: counters[17],
			median: sizes.Median, sd: sizes.SD, moves: sizes.MedianMoves,
		}
	}

	drive := func(st traffic.Stream) {
		for {
			p, ok := st.Next()
			if !ok {
				return
			}
			sw.ProcessPacket(p.TsNs, 1, p.Frame)
		}
	}

	// Phase 1: the mix the classifier was trained on — TCP web flows with
	// full-size data packets, a little UDP.
	dests := traffic.CaseStudyDests()
	drive(traffic.Merge(
		&traffic.WebMix{Dests: dests, Rate: 50000, End: 5e8, Seed: 1},
		&traffic.LoadBalanced{Dests: dests, Rate: 10000, End: 5e8, Seed: 2},
	))
	before := snap()
	fmt.Printf("trained mix : TCP=%-6d UDP=%-6d  size-median-bucket=%d (~%d bytes), size-sd=%d\n",
		before.tcp, before.udp, before.median, before.median*64, before.sd)

	// Phase 2: a UDP-heavy small-packet application rolls out.
	drive(&traffic.LoadBalanced{Dests: dests, Rate: 200000, Start: 5e8, End: 1e9, Seed: 3})
	after := snap()
	fmt.Printf("after shift : TCP=%-6d UDP=%-6d  size-median-bucket=%d (~%d bytes), size-sd=%d\n",
		after.tcp, after.udp, after.median, after.median*64, after.sd)

	// Controller-side drift rules: the median marker's position AND its
	// change rate (the paper's "values and change rates of percentiles"),
	// plus the protocol balance.
	medianMoved := after.median != before.median
	udpFlipped := after.udp > after.tcp != (before.udp > before.tcp)
	moveBurst := after.moves - before.moves
	fmt.Printf("\ndrift signals: size-median moved=%v (marker stepped %d times in phase 2), dominant protocol flipped=%v\n",
		medianMoved, moveBurst, udpFlipped)
	if medianMoved || udpFlipped {
		fmt.Println("=> traffic mix shifted: retrain or re-provision the in-switch classifier")
	} else {
		fmt.Println("=> mix stable")
	}
}
