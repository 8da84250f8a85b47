package netem

import (
	"reflect"
	"testing"

	"stat4/internal/packet"
	"stat4/internal/ring"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// fillRing packs a generated stream into slab blocks and descriptors, the
// way a stat4d producer would, and returns the frame count.
func fillRing(t *testing.T, r *ring.MPSC, slab *ring.Slab, st traffic.Stream, batch int) int {
	t.Helper()
	var (
		block  uint32
		buf    []byte
		n      uint32
		has    bool
		frames int
	)
	flush := func() {
		if !has || n == 0 {
			return
		}
		if !r.TryPush(ring.Desc{Block: block, N: n}) {
			t.Fatal("ring full while filling — size the test buffers up")
		}
		has = false
	}
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		frame := p.Frame.Serialize()
		for {
			if !has {
				idx, ok := slab.TryAcquire()
				if !ok {
					t.Fatal("slab exhausted while filling — size the test buffers up")
				}
				block, has, n = idx, true, 0
				buf = slab.Bytes(idx)[:0]
			}
			nb, ok := ring.AppendFrame(buf, p.TsNs, 1, frame)
			if ok {
				buf = nb
				n++
				if int(n) >= batch {
					flush()
				}
				break
			}
			flush()
		}
		frames++
	}
	flush()
	return frames
}

// TestRingStreamEquivalence: a simulation fed through the ingest-plane ring
// must leave the switch in exactly the state a directly-injected stream
// does — same packet counts, same register file. This is the netem leg of
// the ring handoff's "invisible to the statistics" contract.
func TestRingStreamEquivalence(t *testing.T) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	dests := []packet.IP4{
		packet.ParseIP4(10, 0, 0, 1), packet.ParseIP4(10, 0, 0, 2),
		packet.ParseIP4(10, 0, 0, 17), packet.ParseIP4(10, 0, 0, 42),
	}
	mk := func() traffic.Stream {
		return &traffic.LoadBalanced{Dests: dests, Rate: 20e6, End: 5e5, Seed: 11, Jitter: 0.3}
	}

	run := func(t *testing.T, st traffic.Stream) (*stat4p4.Runtime, uint64, uint64) {
		rt, err := stat4p4.NewRuntime(lib)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.BindFreqDst(0, 0, stat4p4.AllIPv4(), 0, dstBase, 64, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		sim := NewSim()
		node := NewSwitchNode(sim, rt.Sharded(), 500)
		var delivered uint64
		node.Connect(0, 100, func(now uint64, data []byte) { delivered++ })
		node.InjectStream(st, 1)
		sim.Run()
		return rt, rt.Switch().Stats().PktsIn, delivered
	}

	// Whole-stream prefill: one slab block per descriptor, so both pools
	// must cover every batch of the stream (~10k frames / 48 per batch).
	r := ring.NewMPSC(256)
	slab := ring.NewSlab(256, 8<<10)
	frames := fillRing(t, r, slab, mk(), 48)
	rs := NewRingStream(r, slab)
	ringRT, ringIn, ringDelivered := run(t, rs)
	directRT, directIn, directDelivered := run(t, mk())

	if rs.Dropped() != 0 {
		t.Fatalf("ring stream dropped %d frames", rs.Dropped())
	}
	if ringIn != uint64(frames) || ringIn != directIn {
		t.Fatalf("ring fed %d frames, direct %d, generator produced %d", ringIn, directIn, frames)
	}
	if ringDelivered != directDelivered {
		t.Fatalf("ring run delivered %d frames, direct %d", ringDelivered, directDelivered)
	}
	if slab.InUse() != 0 {
		t.Fatalf("%d slab blocks leaked after the stream drained", slab.InUse())
	}
	ringSnap := ringRT.Switch().Snapshot()
	directSnap := directRT.Switch().Snapshot()
	if !reflect.DeepEqual(ringSnap, directSnap) {
		t.Fatal("register files differ between ring-fed and direct injection")
	}

	// A drained stream stays drained.
	if _, ok := rs.Next(); ok {
		t.Fatal("empty ring yielded a packet")
	}
}

// TestRingStreamSkipsUnparsable: junk frames are counted and skipped, not
// surfaced as packets.
func TestRingStreamSkipsUnparsable(t *testing.T) {
	r := ring.NewMPSC(8)
	slab := ring.NewSlab(8, 4096)
	idx, ok := slab.TryAcquire()
	if !ok {
		t.Fatal("slab refused a block")
	}
	buf := slab.Bytes(idx)[:0]
	good := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), packet.ParseIP4(10, 0, 0, 1), 5, 80, 10).Serialize()
	var n uint32
	for _, frame := range [][]byte{{0xde, 0xad}, good, {0x01}} {
		nb, ok := ring.AppendFrame(buf, 1000, 1, frame)
		if !ok {
			t.Fatal("append refused")
		}
		buf = nb
		n++
	}
	if !r.TryPush(ring.Desc{Block: idx, N: n}) {
		t.Fatal("push refused")
	}

	rs := NewRingStream(r, slab)
	p, ok := rs.Next()
	if !ok {
		t.Fatal("good frame not yielded")
	}
	if p.TsNs != 1000 {
		t.Fatalf("ts = %d, want 1000", p.TsNs)
	}
	if _, ok := rs.Next(); ok {
		t.Fatal("junk yielded a packet")
	}
	if rs.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", rs.Dropped())
	}
	if slab.InUse() != 0 {
		t.Fatal("block not released after drain")
	}
}
