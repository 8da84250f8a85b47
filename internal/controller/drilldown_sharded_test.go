package controller

import (
	"testing"

	"stat4/internal/netem"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// TestDrillDownShardedTimeline replays a spike scenario through a 4-shard
// data plane and drives the drill-down controller off the merged digest
// stream — the cross-layer path the Runtime interface exists for: the same
// state machine that runs the single-switch case study retunes a sharded
// switch, with every bind fanned to all shards. The telemetry timeline must
// record the full phase progression in order, and the drill-down must name
// the spiked destination.
func TestDrillDownShardedTimeline(t *testing.T) {
	const (
		shift     = 25 // ~33.5 ms intervals
		window    = 50
		ctrlDelay = 5e6
		shards    = 4
	)
	intervalNs := uint64(1) << shift
	fill := uint64(window+5) * intervalNs
	onset := fill + 2*intervalNs
	duration := onset + 70*intervalNs

	lib := stat4p4.Build(stat4p4.Options{Slots: 2, Size: 256, Stages: 2})
	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	slash8 := packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8)
	// Per-shard statistics run on a quarter of the traffic, so both checks
	// need shard-aware tuning. The rate window monitors at k=4: each shard
	// windows only its own flows' intervals, and at these thinner counts
	// benign jitter reaches past 2–3σ (the 5× spike still clears 4σ by an
	// order of magnitude). The drill-down runs at k=1: flow-hash sharding
	// lands the whole spike flow on one shard whose per-/24 population
	// holds only the subnets its flows cover, and with N populated cells
	// the σ-band N·f > Xsum + k·σ is unsatisfiable for a single dominant
	// cell unless k < √(N−1).
	if _, err := sr.BindWindow(0, 0, stat4p4.DstIn(slash8), shift, window, 4); err != nil {
		t.Fatal(err)
	}

	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, sr.Sharded(), ctrlDelay)
	timeline := telemetry.NewTimeline(16)
	dd := NewDrillDown(Config{
		RT:            sr,
		Sched:         sim,
		CtrlDelay:     ctrlDelay,
		Monitored:     slash8,
		WindowSlot:    0,
		DrillStage:    1,
		DrillSlot:     1,
		SubnetBits:    24,
		SubnetDomain:  256,
		K:             1,
		Warmup:        20 * intervalNs,
		MonitorWarmup: fill,
		Mitigate:      true,
		Timeline:      timeline,
	})
	node.OnDigest = dd.HandleDigest

	dests := traffic.CaseStudyDests()
	target := packet.ParseIP4(10, 0, 3, 4)
	baseRate := 200 * 1e9 / float64(intervalNs)
	load := &traffic.LoadBalanced{Dests: dests, Rate: baseRate, End: duration, Seed: 11, Jitter: 0.5}
	spike := &traffic.Spike{Dest: target, Rate: 4 * baseRate, Start: onset, End: duration, Seed: 12, Jitter: 0.5}
	node.InjectStream(traffic.Merge(load, spike), 1)
	sim.Run()

	if dd.Phase() != PhaseDone {
		t.Fatalf("drill-down stalled in phase %v; log:\n%v", dd.Phase(), dd.Log)
	}
	r := dd.Result()
	if !r.Subnet.Contains(target) {
		t.Errorf("identified subnet %s does not contain the spiked destination %v", r.Subnet, target)
	}
	if r.Host != target {
		t.Errorf("identified host %v, spiked destination %v", r.Host, target)
	}
	if r.MitigatedAt == 0 || r.MitigatedAt < r.HostAt {
		t.Errorf("mitigation timestamp %d inconsistent with host identification at %d", r.MitigatedAt, r.HostAt)
	}

	// The timeline is the integer twin of the log: one entry per phase
	// entered plus the mitigation marker, strictly ordered in virtual time.
	wantCodes := []uint64{
		uint64(PhaseLocateSubnet),
		uint64(PhaseLocateHost),
		uint64(PhaseDone),
		TimelineMitigated,
	}
	entries := timeline.Entries()
	if len(entries) != len(wantCodes) {
		t.Fatalf("timeline has %d entries, want %d: %+v", len(entries), len(wantCodes), entries)
	}
	for i, e := range entries {
		if e.Code != wantCodes[i] {
			t.Errorf("timeline[%d] code %d, want %d", i, e.Code, wantCodes[i])
		}
		if i > 0 && e.AtNs < entries[i-1].AtNs {
			t.Errorf("timeline[%d] at %d precedes timeline[%d] at %d", i, e.AtNs, i-1, entries[i-1].AtNs)
		}
	}
	if first := entries[0].AtNs; first < onset {
		t.Errorf("detection at %d precedes spike onset %d", first, onset)
	}
	if timeline.Dropped() != 0 {
		t.Errorf("timeline dropped %d entries", timeline.Dropped())
	}
}
