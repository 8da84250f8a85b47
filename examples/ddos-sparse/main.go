// Volumetric DDoS over a sparse key space (Table 1, row 2 + the Section 5
// memory extension): the switch tracks per-destination packet counts across
// the ENTIRE IPv4 space in a 256-bucket flow table — memory proportional to
// destinations actually seen, not to the 2^32-value domain — and names the
// attacked address in the alert digest. The binding never expires an entry
// (epoch shift 63, TTL 1: the epoch is ts >> 63, constant, so every stamp
// has age 0 < TTL), which makes the flow table a plain hash-addressed
// frequency distribution with the same moments a dense slot would hold.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

// run replays `rounds` balanced rounds over 60 scattered destinations and
// then `attackPkts` packets at one victim; main uses the full trace, the
// smoke test a short one.
func run(w io.Writer, rounds, attackPkts int) error {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1, FlowTable: true, FlowTableSize: 256, DigestBuf: 4096})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return err
	}
	// Full /32 keys (shift 0), no expiry, every key admitted (coin 2^-0),
	// imbalance check at 2 sigma.
	if _, err := rt.BindFlowDst(0, 0, stat4p4.AllIPv4(), 0, 63, 1, 0, 2); err != nil {
		return err
	}
	sw := rt.Sharded()

	// 60 scattered destinations across the whole address space.
	rng := rand.New(rand.NewSource(11))
	dests := make([]packet.IP4, 60)
	for i := range dests {
		dests[i] = packet.IP4(rng.Uint32())
	}
	victim := dests[17]

	send := func(d packet.IP4, ts uint64) {
		sw.ProcessFrame(ts, 1, packet.NewUDPFrame(packet.IP4(rng.Uint32()), d, 5, 80, 64).Serialize())
	}

	// Normal operation: balanced traffic.
	var ts uint64
	for round := 0; round < rounds; round++ {
		for _, d := range dests {
			send(d, ts)
			ts++
		}
	}
	// Drain warm-up noise, then the attack begins.
	for len(sw.Digests()) > 0 {
		<-sw.Digests()
	}
	attackStart := ts
	for i := 0; i < attackPkts; i++ {
		send(victim, ts)
		ts++
	}

	m, _ := stat4p4.Read(rt, stat4p4.Moments, 0)
	st, err := stat4p4.Read(rt, stat4p4.FlowLedger, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tracked %d destinations of a 2^32 domain in %d of %d buckets (%d rejected observations)\n",
		m.N, st.Occupied, st.Capacity, st.Rejected)

	var first *p4.Digest
	alerts := 0
	for len(sw.Digests()) > 0 {
		d := <-sw.Digests()
		if d.ID == stat4p4.DigestAnomaly {
			if first == nil {
				dd := d
				first = &dd
			}
			alerts++
		}
	}
	if first == nil {
		fmt.Fprintln(w, "attack not detected — something is wrong")
		return nil
	}
	named := packet.IP4(first.Values[1])
	fmt.Fprintf(w, "attack began at packet %d; first alert at packet %d naming %v (victim %v)\n",
		attackStart, first.Values[4], named, victim)
	fmt.Fprintf(w, "%d alerts pushed in total; identification correct: %v\n", alerts, named == victim)
	return nil
}

func main() {
	if err := run(os.Stdout, 200, 3000); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
