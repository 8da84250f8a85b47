// Allocation regression tests for the wheel engine: at steady state,
// scheduling and dispatching the typed event kinds — packet arrival, frame
// delivery over a pooled buffer, digest delivery through the direct sink —
// must not allocate. The top-level zeroalloc_test.go pins the same property
// end to end through the Stat4 program; this one drives a program that only
// forwards, so a regression points at netem, not the datapath.
package netem

import (
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/traffic"
)

// forwardSwitch is the least datapath a node can drive: one shard whose
// program sends every frame out of port 0.
func forwardSwitch(t *testing.T) *p4.ShardedSwitch {
	t.Helper()
	p := p4.NewProgram("forward")
	std := p4.DeclareStdFields(p)
	p.AddAction(p4.NewAction("out", 0, p4.SetEgress(p4.C(0))))
	p.Control = []p4.Stmt{p4.Call("out")}
	ss, err := p4.NewShardedSwitch(p, std, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestTypedEventSchedulingZeroAlloc drives one packet per iteration through
// inject → process → frame delivery → digest delivery, all as wheel events,
// and requires 0 allocs once the slab, pool and sink buffer are warm.
func TestTypedEventSchedulingZeroAlloc(t *testing.T) {
	sim := NewSim()
	n := NewSwitchNode(sim, forwardSwitch(t), 50)
	var delivered, digests int
	n.OnDigest = func(now uint64, d p4.Digest) { digests++ }
	n.Connect(0, 25, func(now uint64, data []byte) { delivered++ })

	// The digest is handed to the node's sink ahead of the packet, so the
	// packet's route moves it onto the control channel.
	vals := []uint64{42}
	pkt := packet.NewUDPFrame(1, 2, 5, 80, 10)
	ts := uint64(0)
	step := func() {
		ts += 100
		n.digestSink(p4.Digest{ID: 3, Values: vals})
		n.Inject(ts, 1, traffic.Pkt{TsNs: ts, Frame: pkt})
		sim.RunUntil(ts + 60)
	}
	for i := 0; i < 1024; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("packet+frame+digest event cycle: %.2f allocs, want 0", avg)
	}
	if delivered == 0 || digests == 0 {
		t.Fatalf("%d frames and %d digests delivered", delivered, digests)
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
