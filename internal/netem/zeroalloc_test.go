// Allocation regression tests for the wheel engine: at steady state,
// scheduling and dispatching the typed event kinds — packet arrival, frame
// delivery over a pooled buffer, digest delivery through the direct sink —
// must not allocate. The top-level zeroalloc_test.go pins the same property
// end to end through a real switch; this one isolates the simulator with a
// stub pipeline so a regression points at netem, not the datapath.
package netem

import (
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/traffic"
)

// nullPipe is a pipeline stub: fixed outputs, an optional digest emitted
// through the node's sink on every packet.
type nullPipe struct {
	outs []p4.FrameOut
	emit func()
}

func (p *nullPipe) ProcessPacket(tsNs uint64, inPort uint16, pkt *packet.Packet) []p4.FrameOut {
	if p.emit != nil {
		p.emit()
	}
	return p.outs
}

func (p *nullPipe) ProcessFrame(tsNs uint64, inPort uint16, data []byte) []p4.FrameOut {
	if p.emit != nil {
		p.emit()
	}
	return p.outs
}

// TestTypedEventSchedulingZeroAlloc drives one packet per iteration through
// inject → process → frame delivery → digest delivery, all as wheel events,
// and requires 0 allocs once the slab, pool and sink buffer are warm.
func TestTypedEventSchedulingZeroAlloc(t *testing.T) {
	sim := NewSim()
	pipe := &nullPipe{}
	n := &SwitchNode{}
	n.init(sim, pipe, make(chan p4.Digest), 50)
	n.OnDigest = func(now uint64, d p4.Digest) {}
	var delivered int
	n.Connect(0, 25, func(now uint64, data []byte) { delivered++ })

	frame := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	vals := []uint64{42}
	pipe.outs = []p4.FrameOut{{Port: 0, Data: frame}}
	pipe.emit = func() { n.digestSink(p4.Digest{ID: 3, Values: vals}) }

	pkt := &packet.Packet{}
	ts := uint64(0)
	step := func() {
		ts += 100
		n.Inject(ts, 1, traffic.Pkt{TsNs: ts, Frame: pkt})
		sim.RunUntil(ts + 60)
	}
	for i := 0; i < 1024; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("packet+frame+digest event cycle: %.2f allocs, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestGenericEventSchedulingAllocs documents the compatibility kind: a
// generic At/After closure still allocates (the closure itself), which is
// exactly why the hot paths use typed events instead.
func TestGenericEventSchedulingZeroSlabGrowth(t *testing.T) {
	sim := NewSim()
	// Warm the slab with a burst, drain, and check the free list is reused:
	// the slab high-water mark must not grow when the same depth recurs.
	for i := 0; i < 256; i++ {
		sim.At(uint64(i), func() {})
	}
	sim.Run()
	grown := len(sim.slab)
	for i := 0; i < 256; i++ {
		sim.At(sim.Now()+uint64(i), func() {})
	}
	sim.Run()
	if len(sim.slab) != grown {
		t.Fatalf("slab grew from %d to %d on a repeat burst of the same depth", grown, len(sim.slab))
	}
}
