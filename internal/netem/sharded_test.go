package netem

import (
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// TestShardedSwitchNodeEndToEnd wires a 4-shard Stat4 deployment into the
// simulator and checks the SwitchNode contract holds for the sharded node:
// frames reach connected ports, digests reach the controller after the
// control delay, and the state the run leaves behind is byte-identical to a
// serial switch that saw the same stream — the netem leg of the tentpole
// equivalence.
func TestShardedSwitchNodeEndToEnd(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	sr, err := stat4p4.NewShardedRuntime(lib, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	serial, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	if _, err := sr.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
		Base: dstBase, Size: 64, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
		Base: dstBase, Size: 64, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}

	sim := NewSim()
	node := NewSwitchNode(sim, sr.Sharded(), 500)
	node.Metrics = telemetry.NewNodeMetrics()

	var digests int
	node.OnDigest = func(now uint64, d p4.Digest) { digests++ }
	var delivered int
	node.Connect(0, 100, func(now uint64, data []byte) { delivered++ })

	// Traffic spread over many flows so every shard sees work; the serial
	// reference replays the same generator.
	dests := []packet.IP4{
		packet.ParseIP4(10, 0, 0, 1), packet.ParseIP4(10, 0, 0, 2),
		packet.ParseIP4(10, 0, 0, 17), packet.ParseIP4(10, 0, 0, 42),
	}
	mk := func() traffic.Stream {
		return &traffic.LoadBalanced{Dests: dests, Rate: 20e6, End: 2e6, Seed: 7, Jitter: 0.2}
	}
	node.InjectStream(mk(), 1)
	sim.Run()
	st := mk()
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		serial.Sharded().ProcessPacket(p.TsNs, 1, p.Frame)
	}

	if delivered == 0 {
		t.Fatal("no frames delivered to the connected port")
	}
	stats := sr.Sharded().Stats()
	if uint64(delivered) != stats.PktsOut {
		t.Fatalf("delivered %d frames, shards emitted %d", delivered, stats.PktsOut)
	}
	var spread int
	for i := 0; i < sr.NumShards(); i++ {
		if sr.Sharded().Shard(i).Stats().PktsIn > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("traffic reached %d shards, want spread over at least 2", spread)
	}

	merged := sr.MergedSnapshot()
	want := serial.Switch().Snapshot()
	lib.CanonicalizeSnapshot(want, sr.FreqSlots())
	for name, cells := range want.Registers {
		got := merged.Registers[name]
		for i := range cells {
			if got[i] != cells[i] {
				t.Fatalf("register %q cell %d: sharded %d, serial %d", name, i, got[i], cells[i])
			}
		}
	}
}

// TestShardedSwitchNodeCountsDroppedDigests pins the attach-before-inject
// contract on the sharded node: digests drained with no handler are counted,
// not silently discarded.
func TestShardedSwitchNodeCountsDroppedDigests(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	sr, err := stat4p4.NewShardedRuntime(lib, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	const intShift = 10
	if _, err := sr.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: intShift, Capacity: 8, K: 2}); err != nil {
		t.Fatal(err)
	}
	sim := NewSim()
	node := NewSwitchNode(sim, sr.Sharded(), 500)
	node.Metrics = telemetry.NewNodeMetrics()
	// No OnDigest handler; the spike's anomaly digests must surface as drops.
	dest := []packet.IP4{packet.ParseIP4(10, 0, 0, 1)}
	load := &traffic.LoadBalanced{Dests: dest, Rate: 20e6, End: 40 << intShift, Seed: 1, Jitter: 0.2}
	spike := &traffic.Spike{Dest: dest[0], Rate: 300e6, Start: 30 << intShift, End: 40 << intShift, Seed: 2, Jitter: 0.2}
	node.InjectStream(traffic.Merge(load, spike), 1)
	sim.Run()

	if node.DroppedDigests() == 0 {
		t.Fatal("spike produced no dropped digests with OnDigest unset")
	}
	if node.Metrics.DroppedDigests.Value() != node.DroppedDigests() {
		t.Fatalf("telemetry counter %d != accessor %d",
			node.Metrics.DroppedDigests.Value(), node.DroppedDigests())
	}
}
