// Command stat4-echo runs the Figure 5 validation experiment: a host sends
// Ethernet frames carrying random integers in [−255, 255] to a switch running
// the Stat4 echo application; the switch tracks the integers' frequency
// distribution and answers every frame with its statistical measures, which
// the host compares against its own software computation.
//
//	stat4-echo -packets 10000 -seed 42 -v
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"stat4/internal/core"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stat4-echo: ")
	packets := flag.Int("packets", 10000, "number of echo frames to send")
	seed := flag.Int64("seed", 42, "random seed for the test integers")
	verbose := flag.Bool("v", false, "print every 1000th reply")
	flag.Parse()

	const (
		domain = 512
		base   = stat4p4.EchoBias - 255
	)
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: domain, Stages: 1, Echo: true})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rt.BindFreqEcho(0, 0, stat4p4.EchoOnly(), base, domain, 1, 1, 0); err != nil {
		log.Fatal(err)
	}

	host := core.NewFreqDist(domain)
	med := host.TrackMedian()
	rng := rand.New(rand.NewSource(*seed))
	sw := rt.Sharded()
	mismatches := 0

	for i := 0; i < *packets; i++ {
		v := int16(rng.Intn(511) - 255)
		frame := packet.NewEchoFrame(packet.MAC{0xaa}, packet.MAC{0xbb}, v).Serialize()
		out := sw.ProcessFrame(uint64(i), 1, frame)
		if len(out) != 1 {
			log.Fatalf("packet %d: no reply", i)
		}
		if err := host.Observe(uint64(int64(v) + 255)); err != nil {
			log.Fatal(err)
		}
		rp, err := packet.Parse(out[0].Data)
		if err != nil {
			log.Fatalf("packet %d: %v", i, err)
		}
		reply, err := packet.UnmarshalEchoReply(rp.Payload)
		if err != nil {
			log.Fatalf("packet %d: %v", i, err)
		}
		m := host.Moments()
		okPkt := reply.N == m.N && reply.Xsum == m.Sum && reply.Xsumsq == m.Sumsq &&
			reply.Var == m.Variance() && reply.SD == m.StdDev() && reply.Median == med.Value()
		if !okPkt {
			mismatches++
			fmt.Printf("MISMATCH at packet %d:\n  switch: %+v\n  host:   N=%d Xsum=%d Xsumsq=%d var=%d sd=%d med=%d\n",
				i, reply, m.N, m.Sum, m.Sumsq, m.Variance(), m.StdDev(), med.Value())
		}
		if *verbose && (i+1)%1000 == 0 {
			fmt.Printf("packet %5d: N=%d Xsum=%d Xsumsq=%d var=%d sd=%d median=%d\n",
				i+1, reply.N, reply.Xsum, reply.Xsumsq, reply.Var, reply.SD, reply.Median)
		}
	}

	if mismatches > 0 {
		fmt.Printf("validation FAILED: %d mismatches over %d packets\n", mismatches, *packets)
		os.Exit(1)
	}
	fmt.Printf("validation OK: switch and host agree on N, Xsum, Xsumsq, variance, sd and median for all %d packets\n", *packets)
}
