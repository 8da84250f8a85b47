package telemetry

import (
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestTimelineDropsWhenFull(t *testing.T) {
	tl := NewTimeline(2)
	tl.Record(10, 1)
	tl.Record(20, 2)
	tl.Record(30, 3) // over capacity: dropped, counted
	if got := tl.Entries(); len(got) != 2 || got[0] != (TimelineEntry{AtNs: 10, Code: 1}) || got[1] != (TimelineEntry{AtNs: 20, Code: 2}) {
		t.Fatalf("entries = %v", got)
	}
	if tl.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tl.Dropped())
	}
	tl.Reset()
	if len(tl.Entries()) != 0 || tl.Dropped() != 0 {
		t.Fatal("Reset left state behind")
	}
	tl.Record(40, 4)
	if len(tl.Entries()) != 1 {
		t.Fatal("timeline unusable after Reset")
	}
}

func TestTimelineDefaultCapacity(t *testing.T) {
	tl := NewTimeline(0)
	for i := uint64(0); i < 100; i++ {
		tl.Record(i, i)
	}
	if len(tl.Entries()) != 64 || tl.Dropped() != 36 {
		t.Fatalf("entries=%d dropped=%d, want 64/36", len(tl.Entries()), tl.Dropped())
	}
}

// TestSwitchMetricsPairing checks the emit/deliver FIFO: each delivery pairs
// with the oldest outstanding emit stamp, and a delivery with no outstanding
// stamp (observer attached after traffic started) is counted but recorded
// nowhere.
func TestSwitchMetricsPairing(t *testing.T) {
	m := NewSwitchMetrics(4)
	for i := 0; i < 3; i++ {
		m.DigestEmitted()
	}
	for i := 0; i < 3; i++ {
		m.DigestDelivered()
	}
	if m.Emitted() != 3 || m.Delivered() != 3 {
		t.Fatalf("emitted=%d delivered=%d", m.Emitted(), m.Delivered())
	}
	if m.DigestWait.Count() != 3 {
		t.Fatalf("wait samples = %d, want 3", m.DigestWait.Count())
	}
	// Unpaired delivery: counted, no bogus wait sample.
	m.DigestDelivered()
	if m.Delivered() != 4 || m.DigestWait.Count() != 3 {
		t.Fatalf("unpaired delivery recorded a wait: delivered=%d waits=%d",
			m.Delivered(), m.DigestWait.Count())
	}
}

// TestSwitchMetricsRingOverwrite checks the bounded-mailbox behaviour: when
// emits outrun deliveries past the ring capacity, the oldest stamps are
// overwritten instead of growing the ring, and later deliveries still pair
// FIFO with what survived.
func TestSwitchMetricsRingOverwrite(t *testing.T) {
	m := NewSwitchMetrics(2)
	for i := 0; i < 5; i++ {
		m.DigestEmitted()
	}
	if m.Emitted() != 5 {
		t.Fatalf("emitted = %d", m.Emitted())
	}
	// Only 2 stamps survive; a third delivery finds the ring empty.
	for i := 0; i < 3; i++ {
		m.DigestDelivered()
	}
	if m.DigestWait.Count() != 2 {
		t.Fatalf("wait samples = %d, want ring capacity 2", m.DigestWait.Count())
	}
	if m.Delivered() != 3 {
		t.Fatalf("delivered = %d", m.Delivered())
	}
}

// TestPipelineRegister wires a full bundle into a registry and checks the
// exposition it produces parses under the package's own validator. It has no
// digest drop series: a switch hands every digest it raises to its sink.
func TestPipelineRegister(t *testing.T) {
	p := NewPipeline()
	p.Switch.PacketCost(1000)
	p.Switch.DigestEmitted()
	p.Switch.DigestDelivered()
	p.Node.FrameLatency.Observe(500)
	p.Node.DroppedDigests.Inc()
	p.Queue.Observe(3)
	p.Phases.Record(42, 1)

	reg := NewRegistry("stat4_test")
	p.Register(reg)

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateExposition(b.String())
	if err != nil {
		t.Fatalf("pipeline exposition invalid: %v\n%s", err, b.String())
	}
	if n == 0 {
		t.Fatal("no samples")
	}
	for _, want := range []string{
		"stat4_test_packet_cost_ns{quantile=\"0.5\"}",
		"stat4_test_digests_emitted 1",
		"stat4_test_node_dropped_digests 1",
		"stat4_test_controller_phase{seq=\"0\",code=\"1\"} 42",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
	if strings.Contains(b.String(), "digests_dropped") {
		t.Fatalf("pipeline exports a digest drop series:\n%s", b.String())
	}
}
