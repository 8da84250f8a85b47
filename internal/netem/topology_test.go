package netem

import (
	"math/rand"
	"testing"

	"stat4/internal/controller"
	"stat4/internal/core"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// TestTwoSwitchTopology wires two Stat4 switches in series — traffic enters
// switch A, A forwards over a 2 ms link into switch B, both track the same
// per-destination distribution — and the controller merges their counters
// into network-wide statistics (the Section 5 multi-switch direction).
func TestTwoSwitchTopology(t *testing.T) {
	mk := func() *stat4p4.Runtime {
		rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
			Base: uint64(packet.ParseIP4(10, 0, 9, 0)), Size: 64, PA: 1, PB: 1}); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b := mk(), mk()
	// A routes everything toward B on port 2; B delivers locally on port 1.
	if _, err := a.AddRoute(packet.NewPrefix(0, 0), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddRoute(packet.NewPrefix(0, 0), 1); err != nil {
		t.Fatal(err)
	}

	sim := NewSim()
	nodeA := NewSwitchNode(sim, a.Sharded(), 1e6)
	nodeB := NewSwitchNode(sim, b.Sharded(), 1e6)

	// Link A:2 → B with 2 ms latency.
	const linkDelay = 2e6
	var deliveredToB uint64
	nodeA.Connect(2, linkDelay, func(now uint64, data []byte) {
		deliveredToB++
		// Frames ingress B as raw bytes, like a real wire.
		nodeB.InjectFrame(1, data)
	})
	var sunk uint64
	var lastArrival uint64
	nodeB.Connect(1, 1e5, func(now uint64, data []byte) {
		sunk++
		lastArrival = now
	})

	dests := make([]packet.IP4, 8)
	for i := range dests {
		dests[i] = packet.ParseIP4(10, 0, 9, byte(i))
	}
	load := &traffic.LoadBalanced{Dests: dests, Rate: 100000, End: 1e8, Seed: 1}
	nodeA.InjectStream(load, 1)
	sim.Run()

	if deliveredToB == 0 {
		t.Fatal("nothing crossed the A→B link")
	}
	if a.Switch().Stats().PktsOut != deliveredToB {
		t.Fatalf("A emitted %d, B received %d", a.Switch().Stats().PktsOut, deliveredToB)
	}
	if sunk != deliveredToB {
		t.Fatalf("B sank %d of %d", sunk, deliveredToB)
	}
	if lastArrival < linkDelay {
		t.Fatal("link latency not applied")
	}

	// Both switches saw the same stream: their distributions agree, and
	// the controller's shared merge doubles every counter.
	ca, _ := stat4p4.Read(a, stat4p4.Counters, 0)
	cb, _ := stat4p4.Read(b, stat4p4.Counters, 0)
	for v := range ca {
		if ca[v] != cb[v] {
			t.Fatalf("switches disagree at value %d: %d vs %d", v, ca[v], cb[v])
		}
	}
	merged, m, err := controller.PullShared(0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for v := range merged {
		if merged[v] != 2*ca[v] {
			t.Fatalf("merged[%d] = %d, want %d", v, merged[v], 2*ca[v])
		}
	}
	am, _ := stat4p4.Read(a, stat4p4.Moments, 0)
	if m.Sum != 2*am.Xsum {
		t.Fatalf("merged Xsum %d, want twice %d", m.Sum, am.Xsum)
	}
}

// TestEchoOverNetwork runs the Figure 5 validation through the simulated
// network: a host node sends echo frames over a delayed link, the switch
// updates its distribution and replies, and the host validates each reply
// against its own computation — with the link delay meaning replies always
// describe the state as of the request's arrival.
func TestEchoOverNetwork(t *testing.T) {
	const (
		domain  = 512
		packets = 2000
		hostSw  = 500_000 // 0.5 ms each way
	)
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: domain, Stages: 1, Echo: true})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-echo", Match: stat4p4.EchoOnly(),
		Base: stat4p4.EchoBias - 255, Size: domain, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	sim := NewSim()
	node := NewSwitchNode(sim, rt.Sharded(), 1e6)

	host := core.NewFreqDist(domain)
	med := host.TrackMedian()
	// The host's view of its own stream, indexed by send order; replies
	// come back in order over the FIFO link.
	type expect struct{ n, sum, sumsq, vr, sd, median uint64 }
	var pending []expect
	received := 0
	node.Connect(7, hostSw, func(now uint64, data []byte) {
		pkt, err := packet.Parse(data)
		if err != nil {
			t.Errorf("reply unparseable: %v", err)
			return
		}
		reply, err := packet.UnmarshalEchoReply(pkt.Payload)
		if err != nil {
			t.Errorf("bad reply: %v", err)
			return
		}
		want := pending[received]
		received++
		if reply.N != want.n || reply.Xsum != want.sum || reply.Xsumsq != want.sumsq ||
			reply.Var != want.vr || reply.SD != want.sd || reply.Median != want.median {
			t.Errorf("reply %d: switch (%d,%d,%d,%d,%d,%d) host (%d,%d,%d,%d,%d,%d)",
				received, reply.N, reply.Xsum, reply.Xsumsq, reply.Var, reply.SD, reply.Median,
				want.n, want.sum, want.sumsq, want.vr, want.sd, want.median)
		}
	})

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < packets; i++ {
		v := int16(rng.Intn(511) - 255)
		sendAt := uint64(i) * 10_000
		frame := packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, v)
		value := uint64(int64(v) + 255)
		sim.At(sendAt+hostSw, func() {
			// The switch sees the frame after the host→switch delay; the
			// host's model updates at the same logical instant.
			if err := host.Observe(value); err != nil {
				t.Errorf("host observe: %v", err)
			}
			m := host.Moments()
			pending = append(pending, expect{
				n: m.N, sum: m.Sum, sumsq: m.Sumsq,
				vr: m.Variance(), sd: m.StdDev(), median: med.Value(),
			})
			node.InjectFrame(7, frame.Serialize())
		})
	}
	sim.Run()
	if received != packets {
		t.Fatalf("received %d of %d replies", received, packets)
	}
}
