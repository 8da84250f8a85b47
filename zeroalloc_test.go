// Allocation regression tests for the data plane: after the compile step and
// scratch-reuse work, one packet through the switch must not allocate. These
// pin the property so a future change that re-introduces a per-packet
// allocation fails loudly rather than showing up as a benchmark regression.
//
// Every test runs with a telemetry observer attached: the observability layer
// rides the per-packet path (cost histogram, digest emit stamps), so the
// zero-alloc guarantee is pinned with recording enabled, not just without.
package stat4

import (
	"testing"

	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// warmupPackets runs enough traffic to take every lazily-grown buffer (deparse
// buffer, digest channel headroom) to steady state before measuring.
const warmupPackets = 4096

// attachTelemetry installs a fresh SwitchMetrics observer so the measured
// path includes the telemetry recorders.
func attachTelemetry(sw *p4.Switch) *telemetry.SwitchMetrics {
	obs := telemetry.NewSwitchMetrics(0)
	sw.SetObserver(obs)
	return obs
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.2f allocs/packet, want 0", name, avg)
	}
}

func TestProcessPacketZeroAllocFreq(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
		Size: 256, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	obs := attachTelemetry(rt.Switch())
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize())
	ts := uint64(0)
	for i := 0; i < warmupPackets; i++ {
		ts++
		sw.ProcessPacket(ts, 1, pkt)
	}
	assertZeroAllocs(t, "freq", func() {
		ts++
		sw.ProcessPacket(ts, 1, pkt)
	})
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

func TestProcessPacketZeroAllocWindow(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: 10, Capacity: 100, K: 2}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	obs := attachTelemetry(rt.Switch())
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize())
	// Perfectly steady traffic: interval folds happen, anomaly digests don't.
	ts := uint64(0)
	for i := 0; i < warmupPackets; i++ {
		ts += 10
		sw.ProcessPacket(ts, 1, pkt)
	}
	assertZeroAllocs(t, "window", func() {
		ts += 10
		sw.ProcessPacket(ts, 1, pkt)
	})
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestProcessPacketZeroAllocFlow walks the flow table's four resolutions on
// a four-bucket table with one-tick epochs: a hit, a claim of a fresh key, a
// claim over an expired entry (eviction), and — once six keys have been
// offered within one epoch — a rejection.
func TestProcessPacketZeroAllocFlow(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1, FlowTable: true, FlowTableSize: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "flow-dst", Match: stat4p4.AllIPv4(), TTL: 1}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	obs := attachTelemetry(rt.Switch())
	pkts := make([]*packet.Packet, 6)
	for i := range pkts {
		pkts[i], _ = packet.Parse(packet.NewUDPFrame(1, packet.IP4(i+1), 5, 80, 10).Serialize())
	}
	ts := uint64(0)
	for i := 0; i < warmupPackets; i++ {
		ts++
		sw.ProcessPacket(ts, 1, pkts[i%len(pkts)])
	}
	ledger := func() stat4p4.FlowStats {
		st, err := stat4p4.Read(rt, stat4p4.FlowLedger, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := ledger()
	// Every key expires one tick after its touch: each packet reclaims.
	assertZeroAllocs(t, "flow evict+claim", func() {
		ts++
		sw.ProcessPacket(ts, 1, pkts[int(ts)%len(pkts)])
	})
	// Within one epoch: the first touches hit or claim, the rest reject.
	ts += 2
	assertZeroAllocs(t, "flow hit+reject", func() {
		for _, p := range pkts {
			sw.ProcessPacket(ts, 1, p)
		}
	})
	after := ledger()
	if after.Admitted == before.Admitted || after.Evicted == before.Evicted || after.Rejected == before.Rejected {
		t.Fatalf("paths not exercised: ledger %+v → %+v", before, after)
	}
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestProcessFrameZeroAllocEcho covers the full frame path — parse into the
// packet scratch, frequency update, median step, reply deparse into the
// reused buffer — for the echo validation app.
func TestProcessFrameZeroAllocEcho(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 512, Stages: 1, Echo: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-echo", Match: stat4p4.EchoOnly(),
		Base: stat4p4.EchoBias - 255, Size: 512, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	obs := attachTelemetry(rt.Switch())
	frame := packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, 42).Serialize()
	ts := uint64(0)
	for i := 0; i < warmupPackets; i++ {
		ts++
		if out := sw.ProcessFrame(ts, 1, frame); len(out) != 1 {
			t.Fatal("no echo reply")
		}
	}
	assertZeroAllocs(t, "echo", func() {
		ts++
		sw.ProcessFrame(ts, 1, frame)
	})
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestProcessBatchZeroAlloc pins the batch entry point: the loop and emit
// callback must add nothing on top of the per-frame path.
func TestProcessBatchZeroAlloc(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
		Size: 256, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	obs := attachTelemetry(rt.Switch())
	frame := packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize()
	batch := make([]p4.FrameIn, 64)
	ts := uint64(0)
	for i := range batch {
		ts++
		batch[i] = p4.FrameIn{TsNs: ts, Port: 1, Data: frame}
	}
	var seen int
	emit := func(p4.FrameOut) { seen++ }
	sw.ProcessBatch(batch, emit)
	assertZeroAllocs(t, "batch", func() {
		sw.ProcessBatch(batch, emit)
	})
	if seen == 0 {
		t.Fatal("emit never called")
	}
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestNetemInjectZeroAllocEcho pins the simulated end-to-end path under the
// wheel engine: scheduling the packet-arrival event, dispatching it through
// the switch, and delivering the reply frame over a pooled link buffer must
// add zero allocations on top of the (already zero-alloc) datapath. This is
// the simulator-side guarantee the timer wheel exists for — a closure-per-
// event engine would allocate a closure and a frame copy per event.
func TestNetemInjectZeroAllocEcho(t *testing.T) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 512, Stages: 1, Echo: true}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-echo", Match: stat4p4.EchoOnly(),
		Base: stat4p4.EchoBias - 255, Size: 512, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	obs := attachTelemetry(rt.Switch())
	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, sw, 500)
	node.OnDigest = func(now uint64, d p4.Digest) {}
	var delivered int
	// Echo replies egress on the ingress port.
	node.Connect(1, 100, func(now uint64, data []byte) { delivered++ })

	pkt, _ := packet.Parse(packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, 42).Serialize())
	ts := uint64(0)
	step := func() {
		ts += 200
		node.Inject(ts, 1, traffic.Pkt{TsNs: ts, Frame: pkt})
		sim.RunUntil(ts + 150)
	}
	for i := 0; i < warmupPackets; i++ {
		step()
	}
	assertZeroAllocs(t, "netem-echo", func() {
		step()
	})
	if delivered == 0 {
		t.Fatal("no echo replies delivered over the link")
	}
	if obs.Cost.Count() == 0 {
		t.Fatal("telemetry observer recorded nothing")
	}
}

// TestShardedProcessBatchZeroAlloc pins the sharded hot path: once the
// per-shard partition, output and digest buffers reach steady state, a batch
// through the dispatcher — partition, every partition on the caller below
// p4.ForkFrames frames or the fork-join with shard 0 on the caller from
// there, ordered reduction — must not allocate, per shard or in the fan-out
// itself. The nil-emit rows are the daemon's call (ingest.Engine.consume):
// no output taken, so no deparse and no output buffering either.
func TestShardedProcessBatchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		frames  int
		emitted bool
	}{
		{"sharded-batch", 4, 64, true},
		{"sharded-batch-fork", 4, p4.ForkFrames, true},
		{"sharded-batch-nil-1s", 1, 64, false},
		{"sharded-batch-nil-2s", 2, 64, false},
		{"sharded-batch-nil-2s-fork", 2, p4.ForkFrames, false},
	} {
		lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
		sr, err := stat4p4.NewShardedRuntime(lib, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Close()
		if _, err := sr.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
			Size: 256, PA: 1, PB: 1}); err != nil {
			t.Fatal(err)
		}
		ss := sr.Sharded()
		obs := make([]*telemetry.SwitchMetrics, ss.NumShards())
		for i := range obs {
			obs[i] = attachTelemetry(ss.Shard(i))
		}
		batch := make([]p4.FrameIn, tc.frames)
		for i := range batch {
			// Spread flows so every shard owns a partition.
			frame := packet.NewUDPFrame(packet.IP4(uint32(i)), packet.IP4(200+uint32(i%8)), uint16(5+i), 80, 10).Serialize()
			batch[i] = p4.FrameIn{TsNs: uint64(i), Port: 1, Data: frame}
		}
		var seen int
		var emit func(p4.FrameOut)
		if tc.emitted {
			emit = func(p4.FrameOut) { seen++ }
		}
		for i := 0; i < warmupPackets/len(batch); i++ {
			ss.ProcessBatch(batch, emit)
		}
		assertZeroAllocs(t, tc.name, func() {
			ss.ProcessBatch(batch, emit)
		})
		if tc.emitted && seen == 0 {
			t.Fatalf("%s: emit never called", tc.name)
		}
		if st := ss.Stats(); st.PktsOut != st.PktsIn || st.PktsIn == 0 {
			t.Fatalf("%s: stats %+v, want every frame forwarded", tc.name, st)
		}
		var shardsHit int
		for _, o := range obs {
			if o.Cost.Count() > 0 {
				shardsHit++
			}
		}
		if shardsHit < min(tc.shards, 2) {
			t.Fatalf("%s: traffic reached %d shards, want at least %d", tc.name, shardsHit, min(tc.shards, 2))
		}
	}
}
