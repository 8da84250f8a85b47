package netem

import (
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() {
		got = append(got, 2)
		// Events scheduled from handlers interleave correctly.
		s.After(5, func() { got = append(got, 25) })
	})
	s.Run()
	want := []int{1, 2, 25, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s.Steps() != 4 {
		t.Fatalf("Steps = %d", s.Steps())
	}
}

func TestSimFIFOForEqualTimes(t *testing.T) {
	s := NewSim()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events reordered: %v", got)
		}
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim()
	ran := 0
	s.At(10, func() { ran++ })
	s.At(30, func() { ran++ })
	s.RunUntil(20)
	if ran != 1 || s.Now() != 20 {
		t.Fatalf("ran=%d now=%d", ran, s.Now())
	}
	s.Run()
	if ran != 2 {
		t.Fatalf("ran=%d after full Run", ran)
	}
}

// TestSimRunUntilMonotone pins the re-entrancy contract: a RunUntil with a
// deadline earlier than the current time must not rewind the clock, and must
// still run events that At already clamped to the present instant.
func TestSimRunUntilMonotone(t *testing.T) {
	s := NewSim()
	var ran []int
	s.At(10, func() { ran = append(ran, 10) })
	s.At(100, func() { ran = append(ran, 100) })
	s.RunUntil(50)
	if s.Now() != 50 {
		t.Fatalf("now = %d after RunUntil(50)", s.Now())
	}
	// Scheduled in the past: At clamps it to now (50), so it is due
	// immediately.
	s.At(20, func() { ran = append(ran, 20) })
	// Re-entrant earlier deadline: clamped to now, runs what is due, never
	// rewinds.
	s.RunUntil(30)
	if s.Now() != 50 {
		t.Fatalf("clock moved to %d on RunUntil(30), want it pinned at 50", s.Now())
	}
	if len(ran) != 2 || ran[1] != 20 {
		t.Fatalf("clamped event did not run under the earlier deadline: %v", ran)
	}
	s.Run()
	want := []int{10, 20, 100}
	if len(ran) != len(want) {
		t.Fatalf("got %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("got %v, want %v", ran, want)
		}
	}
	if s.Now() != 100 {
		t.Fatalf("now = %d after final Run, want 100", s.Now())
	}
}

// TestSimDepthObservable checks the event-queue occupancy hook: one sample
// per dispatched event, recording the backlog left after the pop.
func TestSimDepthObservable(t *testing.T) {
	s := NewSim()
	s.Depth = telemetry.NewHist()
	for i := uint64(1); i <= 4; i++ {
		s.At(i*10, func() {})
	}
	s.Run()
	if s.Depth.Count() != 4 {
		t.Fatalf("depth samples = %d, want 4", s.Depth.Count())
	}
	if s.Depth.Max() != 3 {
		t.Fatalf("max depth = %d, want 3", s.Depth.Max())
	}
}

func TestSimPastSchedulingClamps(t *testing.T) {
	s := NewSim()
	var when uint64
	s.At(100, func() {
		s.At(5, func() { when = s.Now() }) // in the past
	})
	s.Run()
	if when != 100 {
		t.Fatalf("past event ran at %d, want clamped to 100", when)
	}
}

// TestSwitchNodeEndToEnd wires a Stat4 switch into the simulator: traffic is
// injected as a stream, digests arrive at the controller hook after the
// control delay, and forwarded frames arrive at a connected port after the
// link delay.
func TestSwitchNodeEndToEnd(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	const intShift = 10
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: intShift, Capacity: 8, K: 2}); err != nil {
		t.Fatal(err)
	}

	sim := NewSim()
	node := NewSwitchNode(sim, rt.Sharded(), 500)

	var digestTimes []uint64
	var digestEmit []uint64
	node.OnDigest = func(now uint64, d p4.Digest) {
		digestTimes = append(digestTimes, now)
		digestEmit = append(digestEmit, d.Values[4])
	}
	var delivered int
	var deliverTimes []uint64
	node.Connect(0, 100, func(now uint64, data []byte) {
		delivered++
		deliverTimes = append(deliverTimes, now)
	})

	// Stable intervals then a 10x spike.
	dest := []packet.IP4{packet.ParseIP4(10, 0, 0, 1)}
	load := &traffic.LoadBalanced{Dests: dest, Rate: 20e6, End: 40 << intShift, Seed: 1, Jitter: 0.2}
	spike := &traffic.Spike{Dest: dest[0], Rate: 300e6, Start: 30 << intShift, End: 40 << intShift, Seed: 2, Jitter: 0.2}
	node.InjectStream(traffic.Merge(load, spike), 1)
	sim.Run()

	if delivered == 0 {
		t.Fatal("no frames delivered to the connected port")
	}
	if len(digestTimes) == 0 {
		t.Fatal("no digest reached the controller")
	}
	for i, at := range digestTimes {
		if at != digestEmit[i]+500 {
			t.Fatalf("digest %d: arrived %d, emitted %d, want ctrl delay 500", i, at, digestEmit[i])
		}
	}
	st := rt.Switch().Stats()
	if uint64(delivered) != st.PktsOut {
		t.Fatalf("delivered %d frames, switch emitted %d", delivered, st.PktsOut)
	}
}

func TestSwitchNodeCountsUnroutedFrames(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 8, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim()
	node := NewSwitchNode(sim, rt.Sharded(), 0)
	node.Metrics = telemetry.NewNodeMetrics()
	node.Inject(5, 1, traffic.Pkt{TsNs: 5, Frame: packet.NewUDPFrame(1, 2, 3, 4, 8)})
	sim.Run() // must not panic
	st := rt.Switch().Stats()
	if st.PktsIn != 1 {
		t.Fatal("packet not processed")
	}
	if node.UnroutedFrames() != st.PktsOut {
		t.Fatalf("UnroutedFrames = %d, switch emitted %d frames with no connected port",
			node.UnroutedFrames(), st.PktsOut)
	}
	if node.Metrics.UnroutedFrames.Value() != node.UnroutedFrames() {
		t.Fatalf("telemetry counter %d != accessor %d",
			node.Metrics.UnroutedFrames.Value(), node.UnroutedFrames())
	}
}

// TestSwitchNodeCountsDroppedDigests pins the attach-handler-before-inject
// contract: digests drained while OnDigest is nil are counted, not silently
// discarded.
func TestSwitchNodeCountsDroppedDigests(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	const intShift = 10
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: intShift, Capacity: 8, K: 2}); err != nil {
		t.Fatal(err)
	}
	sim := NewSim()
	node := NewSwitchNode(sim, rt.Sharded(), 500)
	node.Metrics = telemetry.NewNodeMetrics()
	// No OnDigest handler: the same spike that reaches the controller in
	// TestSwitchNodeEndToEnd must now show up as dropped digests.
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
