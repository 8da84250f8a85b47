// Load-balancing check (Table 1, row 4): the switch tracks packets per
// destination as a frequency distribution and runs the imbalance check
// N·f > Xsum + 2·sigma on every update. When one server starts absorbing a
// disproportionate share, the switch names it in an alert digest — the
// controller never polls.
package main

import (
	"fmt"
	"log"

	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

func main() {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 16, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		log.Fatal(err)
	}
	// Eight servers 10.0.9.0 … 10.0.9.7; the distribution indexes the low
	// octet. k = 2 arms the in-switch imbalance check.
	pool := packet.NewPrefix(packet.ParseIP4(10, 0, 9, 0), 29)
	base := uint64(packet.ParseIP4(10, 0, 9, 0))
	if _, err := rt.BindFreqDst(0, 0, stat4p4.DstIn(pool), 0, base, 8, 1, 1, 2); err != nil {
		log.Fatal(err)
	}

	servers := make([]packet.IP4, 8)
	for i := range servers {
		servers[i] = packet.ParseIP4(10, 0, 9, byte(i))
	}

	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), 1e6)
	// Ignore the first 100 ms while the distribution's moments settle.
	const warmup = 1e8
	var hot []uint64
	var firstAlert uint64
	node.OnDigest = func(now uint64, d p4.Digest) {
		if d.ID == stat4p4.DigestAnomaly && d.Values[4] >= warmup {
			if firstAlert == 0 {
				firstAlert = d.Values[4]
			}
			hot = append(hot, d.Values[1]) // which server index
		}
	}

	// Balanced traffic, then server 5 starts taking 4x its share at 0.5 s
	// (a broken consistent-hashing bucket, say).
	const skewStart = 5e8
	balanced := &traffic.LoadBalanced{Dests: servers, Rate: 100000, End: 1e9, Seed: 3, Jitter: 0.5}
	skew := &traffic.Spike{Dest: servers[5], Rate: 50000, Start: skewStart, End: 1e9, Seed: 4, Jitter: 0.5}
	node.InjectStream(traffic.Merge(balanced, skew), 1)
	sim.Run()

	counters, _ := stat4p4.Read(rt, stat4p4.Counters, 0)
	fmt.Println("packets per server:")
	for i, c := range counters[:len(servers)] {
		fmt.Printf("  %v : %6d\n", servers[i], c)
	}
	if len(hot) == 0 {
		fmt.Println("no imbalance detected — something is wrong")
		return
	}
	fmt.Printf("imbalance began at %.3fs; first in-switch alert at %.3fs naming server index %d (%v)\n",
		skewStart/1e9, float64(firstAlert)/1e9, hot[0], servers[hot[0]])
}
