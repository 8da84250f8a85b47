package experiments

import (
	"testing"

	"stat4/internal/netem"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

func TestPullMonitorDetectsSpike(t *testing.T) {
	const (
		intShift = 15 // ~33 µs intervals, fast test
		window   = 16
	)
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	// Window bound with a huge k so the switch itself stays quiet: the
	// sketch-only architecture keeps detection in the controller.
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: intShift, Capacity: window, K: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), 100)

	onset := uint64(40) << intShift
	end := uint64(80) << intShift
	dests := []packet.IP4{packet.ParseIP4(10, 0, 0, 1)}
	load := &traffic.LoadBalanced{Dests: dests, Rate: 3e9 / float64(uint64(1)<<intShift) * 100, End: end, Seed: 1, Jitter: 0.3}
	spike := &traffic.Spike{Dest: dests[0], Rate: 4 * 3e9 / float64(uint64(1)<<intShift) * 100, Start: onset, End: end, Seed: 2, Jitter: 0.3}
	node.InjectStream(traffic.Merge(load, spike), 1)

	var detections []uint64
	mon := &PullMonitor{
		Sim: sim, RT: rt, Slot: 0, Window: window,
		Period: 1 << intShift, PerRegNs: 100, LinkDelay: 100, K: 2,
		OnDetect: func(now uint64, v uint64) { detections = append(detections, now) },
	}
	mon.Start(end)
	sim.Run()

	if mon.Pulls == 0 {
		t.Fatal("monitor never pulled")
	}
	if mon.RegistersPerPull != window+2 {
		t.Fatalf("RegistersPerPull = %d", mon.RegistersPerPull)
	}
	found := false
	for _, at := range detections {
		if at >= onset {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("spike not detected by pulling (detections: %v)", detections)
	}
}

func TestPullMonitorQuietBeforeWindowFills(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: 15, Capacity: 16, K: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), 100)
	// Only 4 intervals of traffic: the window never fills.
	dests := []packet.IP4{1}
	load := &traffic.LoadBalanced{Dests: dests, Rate: 1e9, End: 4 << 15, Seed: 3}
	node.InjectStream(load, 1)
	fired := false
	mon := &PullMonitor{
		Sim: sim, RT: rt, Slot: 0, Window: 16,
		Period: 1 << 14, PerRegNs: 10, LinkDelay: 10, K: 2,
		OnDetect: func(uint64, uint64) { fired = true },
	}
	mon.Start(8 << 15)
	sim.Run()
	if fired {
		t.Fatal("detection fired on an unfilled window")
	}
}

func TestOverheadScalesWithPeriod(t *testing.T) {
	fast := &PullMonitor{Period: 1e6, Window: 100}
	slow := &PullMonitor{Period: 1e9, Window: 100}
	fast.RegistersPerPull = fast.Window + 2
	slow.RegistersPerPull = slow.Window + 2
	if fast.OverheadBytesPerSec() <= slow.OverheadBytesPerSec() {
		t.Fatal("overhead not inversely proportional to period")
	}
	ratio := fast.OverheadBytesPerSec() / slow.OverheadBytesPerSec()
	if ratio < 999 || ratio > 1001 {
		t.Fatalf("overhead ratio %.1f, want 1000", ratio)
	}
}

func TestMeanSDExcluding(t *testing.T) {
	cells := []uint64{10, 10, 10, 100}
	mean, sd := meanSDExcluding(cells, 3)
	if mean != 10 || sd != 0 {
		t.Fatalf("mean=%v sd=%v, want 10,0", mean, sd)
	}
	mean, _ = meanSDExcluding(cells, 0)
	if mean != 40 {
		t.Fatalf("mean=%v, want 40", mean)
	}
	if m, s := meanSDExcluding([]uint64{5}, 0); m != 0 || s != 0 {
		t.Fatalf("degenerate case: %v %v", m, s)
	}
}
