package stat4p4

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// differentialPair builds two runtimes of the same library and switches one
// to the tree-walking reference interpreter.
func differentialPair(t testing.TB, opts Options) (compiled, tree *Runtime) {
	t.Helper()
	c, err := NewRuntime(Build(opts))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewRuntime(Build(opts))
	if err != nil {
		t.Fatal(err)
	}
	w.Switch().SetExecMode(p4.ExecTree)
	return c, w
}

// replayBoth pushes one frame through both switches and fails on any
// divergence in outputs or digests. Output bytes are compared immediately —
// both switches reuse their deparse buffers.
func replayBoth(t testing.TB, compiled, tree *Runtime, ts uint64, port uint16, frame []byte) {
	t.Helper()
	outC := compiled.Switch().ProcessFrame(ts, port, frame)
	var savedPort uint16
	var savedData []byte
	if len(outC) > 0 {
		savedPort = outC[0].Port
		savedData = append(savedData, outC[0].Data...)
	}
	outT := tree.Switch().ProcessFrame(ts, port, frame)
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
func compareState(t testing.TB, compiled, tree *Runtime) {
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

// TestDifferentialEchoWindow replays a mixed echo + timed IPv4 stream through
// the full Stat4 program (echo app on stage 0, anomaly-checked window on
// stage 1) under both interpreters. The tight window and low k make interval
// digests fire, so the digest streams are compared under load too.
func TestDifferentialEchoWindow(t *testing.T) {
	opts := Options{Slots: 2, Size: 512, Stages: 2, Echo: true}
	compiled, tree := differentialPair(t, opts)
	for _, rt := range []*Runtime{compiled, tree} {
		if _, err := rt.BindFreqEcho(0, 0, EchoOnly(), EchoBias-255, 512, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.BindWindow(1, 1, AllIPv4(), 10, 16, 2); err != nil {
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
	opts := Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 256}
	compiled, tree := differentialPair(t, opts)
	for _, rt := range []*Runtime{compiled, tree} {
		if _, err := rt.BindFlowDst(0, 0, AllIPv4(), 0, 12, 2, 2, 2); err != nil {
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

	st := mustRead(t, compiled, FlowLedger, 0)
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

	opts := Options{Slots: 2, Size: 512, Stages: 2, Echo: true}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		compiled, tree := differentialPair(t, opts)
		for _, rt := range []*Runtime{compiled, tree} {
			if _, err := rt.BindFreqEcho(0, 0, EchoOnly(), EchoBias-255, 512, 1, 1, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.BindWindow(1, 1, AllIPv4(), 8, 8, 2); err != nil {
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
