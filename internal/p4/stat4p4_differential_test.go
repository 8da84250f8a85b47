package p4_test

// The full Stat4 programs under both interpreters: every stat4p4 measure is
// replayed frame by frame through a compiled switch and a tree-walking one,
// and their outputs, digests, counters and register state must agree. The
// tests live here, outside package stat4p4, because the tree walker is
// test-only code of package p4 (walker_test.go), reached through
// export_test.go.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

var (
	entropyOpts = stat4p4.Options{Slots: 1, Size: 256, Stages: 1, Entropy: true}
	hhOpts      = stat4p4.Options{Slots: 1, Size: 64, Stages: 1, HeavyHitter: true}
)

// differentialPair builds two runtimes of the same library: the first is
// driven through the compiled plan, the second through the tree walker (see
// replayBoth).
func differentialPair(t testing.TB, opts stat4p4.Options) (compiled, tree *stat4p4.Runtime) {
	t.Helper()
	c, err := stat4p4.NewRuntime(stat4p4.Build(opts))
	if err != nil {
		t.Fatal(err)
	}
	w, err := stat4p4.NewRuntime(stat4p4.Build(opts))
	if err != nil {
		t.Fatal(err)
	}
	return c, w
}

// replayBoth pushes one frame through both switches and fails on any
// divergence in outputs or digests. Output bytes are compared immediately —
// both switches reuse their deparse buffers.
func replayBoth(t testing.TB, compiled, tree *stat4p4.Runtime, ts uint64, port uint16, frame []byte) {
	t.Helper()
	outC := compiled.Switch().ProcessFrame(ts, port, frame)
	var savedPort uint16
	var savedData []byte
	if len(outC) > 0 {
		savedPort = outC[0].Port
		savedData = append(savedData, outC[0].Data...)
	}
	outT := p4.ProcessFrameTree(tree.Switch(), ts, port, frame)
	if len(outC) != len(outT) {
		t.Fatalf("ts %d: compiled emitted %d frames, tree %d", ts, len(outC), len(outT))
	}
	if len(outT) > 0 {
		if savedPort != outT[0].Port || !bytes.Equal(savedData, outT[0].Data) {
			t.Fatalf("ts %d: outputs differ: compiled port %d data %x, tree port %d data %x",
				ts, savedPort, savedData, outT[0].Port, outT[0].Data)
		}
	}
	dc := drainAnomalies(compiled.Switch())
	dt := drainAnomalies(tree.Switch())
	if !reflect.DeepEqual(dc, dt) {
		t.Fatalf("ts %d: digests differ: compiled %v, tree %v", ts, dc, dt)
	}
}

// compareState fails if the two switches' register state or counters differ.
func compareState(t testing.TB, compiled, tree *stat4p4.Runtime) {
	t.Helper()
	snapC := compiled.Switch().Snapshot()
	snapT := tree.Switch().Snapshot()
	if !reflect.DeepEqual(snapC.Registers, snapT.Registers) {
		t.Fatal("register snapshots differ between compiled plan and tree walker")
	}
	if sc, st := compiled.Switch().Stats(), tree.Switch().Stats(); sc != st {
		t.Fatalf("stats differ: compiled %+v, tree %+v", sc, st)
	}
}

func drainAnomalies(sw *p4.Switch) []p4.Digest {
	var out []p4.Digest
	for {
		select {
		case d := <-sw.Digests():
			out = append(out, d)
		default:
			return out
		}
	}
}

func mustRead[T any](t testing.TB, tgt stat4p4.Target, v *stat4p4.View[T], slot int) T {
	t.Helper()
	got, err := stat4p4.Read(tgt, v, slot)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestDifferentialEchoWindow replays a mixed echo + timed IPv4 stream through
// the full Stat4 program (echo app on stage 0, anomaly-checked window on
// stage 1) under both interpreters. The tight window and low k make interval
// digests fire, so the digest streams are compared under load too.
func TestDifferentialEchoWindow(t *testing.T) {
	opts := stat4p4.Options{Slots: 2, Size: 512, Stages: 2, Echo: true}
	compiled, tree := differentialPair(t, opts)
	for _, rt := range []*stat4p4.Runtime{compiled, tree} {
		if _, err := rt.BindFreqEcho(0, 0, stat4p4.EchoOnly(), stat4p4.EchoBias-255, 512, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.BindWindow(1, 1, stat4p4.AllIPv4(), 10, 16, 2); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(99))
	ts := uint64(0)
	for i := 0; i < 6000; i++ {
		ts += uint64(rng.Intn(400))
		var frame []byte
		if rng.Intn(3) == 0 {
			v := int16(rng.Intn(511) - 255)
			frame = packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, v).Serialize()
		} else {
			dst := packet.ParseIP4(10, 0, byte(rng.Intn(4)), byte(rng.Intn(8)))
			frame = packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, rng.Intn(32)).Serialize()
		}
		replayBoth(t, compiled, tree, ts, uint16(i%3), frame)
	}
	compareState(t, compiled, tree)
}

// TestDifferentialFlow does the same over the flow-table program, whose
// resolution tree (hit, coin, self-stale reclaim, claim, evict, reject) is the
// hairiest emitted code: ~1.5× capacity of churning keys over many epochs
// behind a 2^-2 admission coin, with the hot-flow check armed.
func TestDifferentialFlow(t *testing.T) {
	opts := stat4p4.Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 256}
	compiled, tree := differentialPair(t, opts)
	for _, rt := range []*stat4p4.Runtime{compiled, tree} {
		if _, err := rt.BindFlowDst(0, 0, stat4p4.AllIPv4(), 0, 12, 2, 2, 2); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(1234))
	ts := uint64(0)
	for i := 0; i < 30000; i++ {
		ts += uint64(rng.Intn(1 << 9))
		dst := packet.IP4(rng.Intn(384) + 1)
		frame := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 9), dst, 1000, 80, 0).Serialize()
		replayBoth(t, compiled, tree, ts, 1, frame)
	}
	compareState(t, compiled, tree)

	st := mustRead(t, compiled, stat4p4.FlowLedger, 0)
	if st.Evicted == 0 || st.Rejected == 0 || st.Shed == 0 {
		t.Fatalf("test vacuous: ledger %+v lacks an eviction, rejection or shed", st)
	}
}

// FuzzDifferential lets the fuzzer script a frame stream (two bytes per
// frame: kind selector + value) and replays it through both interpreters,
// checking outputs per frame and state at the end. `make fuzz-smoke` gives it
// a 10s budget.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{0, 5, 1, 200, 2, 17, 3, 3, 4, 0})
	f.Add([]byte{1, 1, 1, 2, 1, 3, 0, 255})
	f.Add(bytes.Repeat([]byte{2, 9}, 40))

	opts := stat4p4.Options{Slots: 2, Size: 512, Stages: 2, Echo: true}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		compiled, tree := differentialPair(t, opts)
		for _, rt := range []*stat4p4.Runtime{compiled, tree} {
			if _, err := rt.BindFreqEcho(0, 0, stat4p4.EchoOnly(), stat4p4.EchoBias-255, 512, 1, 1, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.BindWindow(1, 1, stat4p4.AllIPv4(), 8, 8, 2); err != nil {
				t.Fatal(err)
			}
		}
		ts := uint64(0)
		for i := 0; i+1 < len(script); i += 2 {
			kind, v := script[i], script[i+1]
			ts += uint64(v) * 13
			var frame []byte
			switch kind % 4 {
			case 0:
				frame = packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, int16(v)-128).Serialize()
			case 1:
				dst := packet.ParseIP4(10, 0, 0, v)
				frame = packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, int(v)%16).Serialize()
			case 2:
				dst := packet.ParseIP4(10, 0, v, 1)
				frame = packet.NewTCPFrame(packet.ParseIP4(172, 16, 0, 1), dst, 1234, 80, packet.FlagSYN).Serialize()
			default:
				frame = []byte{kind, v, 0xde, 0xad}
			}
			replayBoth(t, compiled, tree, ts, uint16(kind)%4, frame)
		}
		compareState(t, compiled, tree)
	})
}

// TestDifferentialEntropy replays a skew-then-flood stream through the
// compiled plan and the tree walker with the collapse check armed, so the
// log2 leaf actions, the contribution fold and the digest path are all
// compared per frame.
func TestDifferentialEntropy(t *testing.T) {
	compiled, tree := differentialPair(t, entropyOpts)
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	for _, rt := range []*stat4p4.Runtime{compiled, tree} {
		if _, err := rt.BindEntropyDst(0, 0, stat4p4.AllIPv4(), 0, dstBase, 256, uint64(5)<<16, 512); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 9500; i++ {
		var low byte
		if i < 1500 {
			low = byte(rng.Intn(256))
		} else {
			low = byte(rng.Intn(4)) // collapsing phase: entropy digests fire
		}
		dst := packet.ParseIP4(10, 0, 0, low)
		frame := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, rng.Intn(16)).Serialize()
		replayBoth(t, compiled, tree, uint64(i)*17, 1, frame)
	}
	compareState(t, compiled, tree)
	// replayBoth already compared (and consumed) the digest streams frame by
	// frame; proving the final mix sits below the 5-bit threshold proves the
	// last gated check fired, so the alert path was among what it compared.
	if snap := mustRead(t, compiled, stat4p4.Entropy, 0); snap.Bits >= 5 {
		t.Fatalf("stream never collapsed below the 5-bit threshold (%.3f bits) — the alert path went uncompared", snap.Bits)
	}
}

// TestDifferentialHeavyHitter compares the recirculation pass — probe, claim,
// take, reject — between the compiled plan and the tree walker over a
// zipf-ish mix heavy enough to exercise every branch.
func TestDifferentialHeavyHitter(t *testing.T) {
	compiled, tree := differentialPair(t, hhOpts)
	for _, rt := range []*stat4p4.Runtime{compiled, tree} {
		if _, err := rt.BindHeavyHitterSrc(0, 0, stat4p4.AllIPv4(), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2718))
	dst := packet.ParseIP4(10, 0, 0, 1)
	for i := 0; i < 5000; i++ {
		// Heavy head of 4 flows plus a long random tail that overflows the
		// 16-bucket table and drives hh_reject.
		var src packet.IP4
		if rng.Intn(3) > 0 {
			src = packet.ParseIP4(203, 0, 113, byte(rng.Intn(4)))
		} else {
			src = packet.ParseIP4(198, byte(rng.Intn(64)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		frame := packet.NewUDPFrame(src, dst, 1000, 80, 0).Serialize()
		replayBoth(t, compiled, tree, uint64(i)*11, 1, frame)
	}
	compareState(t, compiled, tree)
	if compiled.Switch().Stats().Recirculated == 0 {
		t.Fatal("differential heavy-hitter stream never recirculated")
	}
	if mustRead(t, compiled, stat4p4.HeavyHitters, 0).Rejected == 0 {
		t.Fatal("table never overflowed — the reject branch went uncompared")
	}
}

// TestEntropyHHComposed is the compiled-vs-tree half of stat4p4's test of the
// same name: the composed entropy + heavy-hitter program, whose
// recirculation pass rides on the same stage budget, with the two measures
// partitioning the traffic by match on one binding stage.
func TestEntropyHHComposed(t *testing.T) {
	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	compiled, tree := differentialPair(t, opts)
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	entPfx := packet.Prefix{Addr: packet.ParseIP4(10, 0, 0, 0), Len: 24}
	hhPfx := packet.Prefix{Addr: packet.ParseIP4(10, 0, 1, 0), Len: 24}
	for _, rt := range []*stat4p4.Runtime{compiled, tree} {
		if _, err := rt.BindEntropyDst(0, 0, stat4p4.DstIn(entPfx), 0, dstBase, 256, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.BindHeavyHitterSrc(0, 1, stat4p4.DstIn(hhPfx), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		src := packet.ParseIP4(203, 0, 113, byte(rng.Intn(8)))
		var dst packet.IP4
		if i%2 == 0 {
			dst = packet.ParseIP4(10, 0, 0, byte(rng.Intn(64))) // entropy slot
		} else {
			dst = packet.ParseIP4(10, 0, 1, 1) // heavy-hitter slot
		}
		frame := packet.NewUDPFrame(src, dst, 1000, 80, 0).Serialize()
		replayBoth(t, compiled, tree, uint64(i)*7, 1, frame)
	}
	compareState(t, compiled, tree)
	if compiled.Switch().Stats().Recirculated == 0 {
		t.Fatal("composed stream never recirculated — the heavy-hitter pass went uncompared")
	}
}

// FuzzDifferentialEntropyHH lets the fuzzer script a stream through the
// composed entropy + heavy-hitter program under both interpreters. Two bytes
// per frame: a kind selector and a value steering the addresses.
func FuzzDifferentialEntropyHH(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 9, 2, 200})
	f.Add(bytes.Repeat([]byte{0, 7}, 60))
	f.Add([]byte{1, 255, 2, 0, 0, 128})

	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	entPfx := packet.Prefix{Addr: packet.ParseIP4(10, 0, 0, 0), Len: 24}
	hhPfx := packet.Prefix{Addr: packet.ParseIP4(10, 0, 1, 0), Len: 24}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		compiled, tree := differentialPair(t, opts)
		for _, rt := range []*stat4p4.Runtime{compiled, tree} {
			if _, err := rt.BindEntropyDst(0, 0, stat4p4.DstIn(entPfx), 0, dstBase, 256, uint64(6)<<16, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.BindHeavyHitterSrc(0, 1, stat4p4.DstIn(hhPfx), 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		ts := uint64(0)
		for i := 0; i+1 < len(script); i += 2 {
			kind, v := script[i], script[i+1]
			ts += uint64(v)*3 + 1
			var frame []byte
			switch kind % 4 {
			case 0:
				// Concentrated entropy traffic: few destination groups —
				// drives the collapse check.
				frame = packet.NewUDPFrame(packet.ParseIP4(203, 0, 113, v%4),
					packet.ParseIP4(10, 0, 0, v%8), 1000, 80, 0).Serialize()
			case 1:
				// Dispersed entropy traffic: random groups — high entropy.
				frame = packet.NewUDPFrame(packet.ParseIP4(198, v, byte(i), 1),
					packet.ParseIP4(10, 0, 0, v), 1000, 80, int(v)%16).Serialize()
			case 2:
				// Heavy-hitter traffic: a hot head when v is small, a long
				// tail otherwise — exercises claim, take and reject.
				frame = packet.NewUDPFrame(packet.ParseIP4(203, 0, v%16, byte(i)%4),
					packet.ParseIP4(10, 0, 1, 1), 1000, 80, 0).Serialize()
			default:
				frame = []byte{kind, v, 0xde, 0xad}
			}
			replayBoth(t, compiled, tree, ts, 1, frame)
		}
		compareState(t, compiled, tree)
	})
}
