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
	outC := compiled.Sharded().ProcessFrame(ts, port, frame)
	var savedPort uint16
	var savedData []byte
	if len(outC) > 0 {
		savedPort = outC[0].Port
		savedData = append(savedData, outC[0].Data...)
	}
	outT := p4.ProcessFrameTree(tree.Sharded(), ts, port, frame)
	if len(outC) != len(outT) {
		t.Fatalf("ts %d: compiled emitted %d frames, tree %d", ts, len(outC), len(outT))
	}
	if len(outT) > 0 {
		if savedPort != outT[0].Port || !bytes.Equal(savedData, outT[0].Data) {
			t.Fatalf("ts %d: outputs differ: compiled port %d data %x, tree port %d data %x",
				ts, savedPort, savedData, outT[0].Port, outT[0].Data)
		}
	}
	if fc, ft := p4.EndFields(compiled.Switch()), p4.EndFields(tree.Switch()); !reflect.DeepEqual(fc, ft) {
		t.Fatalf("ts %d: fields at the end of the pipeline differ: compiled %v, tree %v", ts, fc, ft)
	}
	dc := drainAnomalies(compiled.Sharded())
	dt := drainAnomalies(tree.Sharded())
	if !reflect.DeepEqual(dc, dt) {
		t.Fatalf("ts %d: digests differ: compiled %v, tree %v", ts, dc, dt)
	}
}

// churnPair drives the control plane of a differential pair: table entries
// rebound, deleted and inserted again, and the whole state moved into fresh
// switches, identically on both runtimes, between frames.
type churnPair struct {
	t     testing.TB
	rt    [2]*stat4p4.Runtime // compiled, tree
	ids   []p4.EntryID        // the entries, the same in both
	alts  [][]stat4p4.Binding // per entry: the bindings it may be rebound to
	state []int               // per entry: the alternative it has
}

// newChurnPair builds the pair and binds entry i to alts[i][0].
func newChurnPair(t testing.TB, opts stat4p4.Options, alts [][]stat4p4.Binding) *churnPair {
	t.Helper()
	c, w := differentialPair(t, opts)
	cp := &churnPair{t: t, rt: [2]*stat4p4.Runtime{c, w}, alts: alts, state: make([]int, len(alts))}
	for _, a := range alts {
		cp.ids = append(cp.ids, cp.bind(a[0]))
	}
	return cp
}

func (cp *churnPair) bind(b stat4p4.Binding) p4.EntryID {
	cp.t.Helper()
	var ids [2]p4.EntryID
	for i, rt := range cp.rt {
		id, err := rt.Bind(b)
		if err != nil {
			cp.t.Fatal(err)
		}
		ids[i] = id
	}
	if ids[0] != ids[1] {
		cp.t.Fatalf("entry IDs diverged: %v", ids)
	}
	return ids[0]
}

// op applies control-plane op k%2 with argument v to both runtimes, each
// through Unbind and Bind: 0 rebinds an entry to another of its alternative
// bindings, 1 deletes one and inserts it again unchanged.
func (cp *churnPair) op(k, v byte) {
	cp.t.Helper()
	e := int(v) % len(cp.ids)
	if k%2 == 0 {
		cp.state[e] = (cp.state[e] + 1 + int(v)/len(cp.ids)) % len(cp.alts[e])
	}
	b := cp.alts[e][cp.state[e]]
	for _, rt := range cp.rt {
		if err := rt.Unbind(b.Stage, cp.ids[e]); err != nil {
			cp.t.Fatal(err)
		}
	}
	cp.ids[e] = cp.bind(b)
}

func (cp *churnPair) frame(ts uint64, port uint16, frame []byte) {
	cp.t.Helper()
	replayBoth(cp.t, cp.rt[0], cp.rt[1], ts, port, frame)
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

func drainAnomalies(sw *p4.ShardedSwitch) []p4.Digest {
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

func mustRead[T any](t testing.TB, rt *stat4p4.Runtime, v *stat4p4.View[T], slot int) T {
	t.Helper()
	got, err := stat4p4.Read(rt, v, slot)
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
		if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-echo", Match: stat4p4.EchoOnly(),
			Base: stat4p4.EchoBias - 255, Size: 512, PA: 1, PB: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Stage: 1, Slot: 1, Match: stat4p4.AllIPv4(),
			IntervalShift: 10, Capacity: 16, K: 2}); err != nil {
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
		if _, err := rt.Bind(stat4p4.Binding{Kind: "flow-dst", Match: stat4p4.AllIPv4(),
			EpochShift: 12, TTL: 2, SampleShift: 2, K: 2}); err != nil {
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
// step: kind selector + value) and replays it through both interpreters,
// checking outputs per frame and state at the end. Selectors 4–7 are control
// plane instead (see churnPair.op): entries rebound to other kinds and
// arguments, or deleted and inserted again, so rule install is fuzzed too. `make fuzz-smoke` gives it a 10s
// budget.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{0, 5, 1, 200, 2, 17, 3, 3, 4, 0})
	f.Add([]byte{1, 1, 1, 2, 1, 3, 0, 255})
	f.Add(bytes.Repeat([]byte{2, 9}, 40))

	f.Add([]byte{0, 5, 4, 0, 1, 9, 5, 1, 0, 7, 6, 0, 1, 3, 4, 3, 2, 2})

	opts := stat4p4.Options{Slots: 2, Size: 512, Stages: 2, Echo: true}
	echo := func(k uint64) stat4p4.Binding {
		return stat4p4.Binding{Kind: "freq-echo", Match: stat4p4.EchoOnly(),
			Base: stat4p4.EchoBias - 255, Size: 512, PA: 1, PB: 1, K: k}
	}
	window := func(shift uint, capacity int, k uint64) stat4p4.Binding {
		return stat4p4.Binding{Kind: "window", Stage: 1, Slot: 1, Match: stat4p4.AllIPv4(),
			IntervalShift: shift, Capacity: capacity, K: k}
	}
	alts := [][]stat4p4.Binding{
		{echo(0), echo(2), {Kind: "freq-proto", Match: stat4p4.AllIPv4(), Size: 512, PA: 2, PB: 1, K: 1}},
		{window(8, 8, 2), window(6, 4, 0), {Kind: "window-bytes", Stage: 1, Slot: 1, Match: stat4p4.AllIPv4(), IntervalShift: 9, Capacity: 8, K: 1},
			{Kind: "freq-dst", Stage: 1, Slot: 1, Match: stat4p4.AllIPv4(), Shift: 0, Base: uint64(packet.ParseIP4(10, 0, 0, 0)), Size: 256, PA: 1, PB: 3, K: 2}},
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		cp := newChurnPair(t, opts, alts)
		ts := uint64(0)
		for i := 0; i+1 < len(script); i += 2 {
			kind, v := script[i], script[i+1]
			if kind%8 >= 4 {
				cp.op(kind%8-4, v)
				continue
			}
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
			cp.frame(ts, uint16(kind)%4, frame)
		}
		compareState(t, cp.rt[0], cp.rt[1])
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
		if _, err := rt.Bind(stat4p4.Binding{Kind: "entropy-dst", Match: stat4p4.AllIPv4(),
			Base: dstBase, Size: 256, H0: uint64(5) << 16, CheckEvery: 512}); err != nil {
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
		if _, err := rt.Bind(stat4p4.Binding{Kind: "hh-src", Match: stat4p4.AllIPv4(),
			SampleShift: 1}); err != nil {
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
		if _, err := rt.Bind(stat4p4.Binding{Kind: "entropy-dst", Match: stat4p4.DstIn(entPfx),
			Base: dstBase, Size: 256}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Bind(stat4p4.Binding{Kind: "hh-src", Slot: 1, Match: stat4p4.DstIn(hhPfx),
			SampleShift: 1}); err != nil {
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
// composed entropy + heavy-hitter program — the daemon's — under both
// interpreters. Two bytes per step: a kind selector and a value steering the
// addresses, or with selectors 4–7 a control-plane op as in FuzzDifferential.
func FuzzDifferentialEntropyHH(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 9, 2, 200})
	f.Add(bytes.Repeat([]byte{0, 7}, 60))
	f.Add([]byte{1, 255, 2, 0, 0, 128})

	f.Add([]byte{0, 1, 4, 0, 2, 9, 5, 1, 0, 7, 6, 0, 2, 3, 4, 1, 1, 2})

	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	ent := stat4p4.DstIn(packet.Prefix{Addr: packet.ParseIP4(10, 0, 0, 0), Len: 24})
	hh := stat4p4.DstIn(packet.Prefix{Addr: packet.ParseIP4(10, 0, 1, 0), Len: 24})
	alts := [][]stat4p4.Binding{
		{{Kind: "entropy-dst", Match: ent, Base: dstBase, Size: 256, H0: 6 << 16, CheckEvery: 1},
			{Kind: "entropy-src", Match: ent, Shift: 24, Size: 256, H0: 7 << 16, CheckEvery: 4},
			{Kind: "freq-dst", Match: ent, Base: dstBase, Size: 256, PA: 1, PB: 1, K: 2},
			{Kind: "window", Match: ent, IntervalShift: 7, Capacity: 16, K: 1}},
		{{Kind: "hh-src", Slot: 1, Match: hh, SampleShift: 1},
			{Kind: "hh-dst", Slot: 1, Match: hh, SampleShift: 0},
			{Kind: "freq-proto", Slot: 1, Match: hh, Size: 256, PA: 1, PB: 1}},
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		cp := newChurnPair(t, opts, alts)
		ts := uint64(0)
		for i := 0; i+1 < len(script); i += 2 {
			kind, v := script[i], script[i+1]
			if kind%8 >= 4 {
				cp.op(kind%8-4, v)
				continue
			}
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
			cp.frame(ts, 1, frame)
		}
		compareState(t, cp.rt[0], cp.rt[1])
	})
}

// allKinds names every row of stat4p4's kind table; a program offers the
// ones its options emit.
var allKinds = []string{
	"freq-echo", "freq-dst", "freq-dport", "freq-proto", "freq-len", "window", "window-bytes",
	"entropy-dst", "entropy-src", "hh-dst", "hh-src", "flow-dst", "flow-src", "flow-pair",
}

// preset is one binding of the given kind that lands the test traffic inside
// the program's sizing: destination /24s of 10.0.0.0/16, small ports and
// lengths, echo values, short windows, expiring flows.
func preset(o stat4p4.Options, kind string, k uint64) stat4p4.Binding {
	b := stat4p4.Binding{Kind: kind, Match: stat4p4.AllIPv4(), Size: o.Size, PA: 1, PB: 1, K: k,
		IntervalShift: 10, Capacity: min(16, o.Size), CheckEvery: 2, SampleShift: 1,
		EpochShift: 14, TTL: 2}
	switch kind {
	case "freq-echo":
		b.Match, b.Base = stat4p4.EchoOnly(), stat4p4.EchoBias-255
	case "freq-dst", "entropy-dst", "entropy-src":
		b.Shift, b.Base = 8, uint64(packet.ParseIP4(10, 0, 0, 0))>>8
		if kind == "entropy-src" {
			b.Shift, b.Base = 0, uint64(packet.ParseIP4(192, 0, 2, 0))
		}
		b.H0 = k << 16
	case "freq-len":
		b.Shift = 2
	}
	if o.Strict {
		b.Capacity = o.Size // a strict window is exactly the power-of-two capacity
	}
	return b
}

// TestDifferentialRegistry replays traffic through every registered program
// with every kind its binding tables offer bound at k ∈ {0, 2}, under both
// interpreters: outputs, digests, fields, registers and counters must agree.
// Multi-stage programs also bind their last stage, so traces exit into a
// later apply.
func TestDifferentialRegistry(t *testing.T) {
	for _, rp := range stat4p4.Registered() {
		for _, kind := range allKinds {
			for _, k := range []uint64{0, 2} {
				lib := stat4p4.Build(rp.Opts)
				if _, err := lib.Lower(preset(lib.Opts, kind, k)); err != nil {
					continue // not offered, or not at this k, by this program
				}
				t.Run(rp.Name+"/"+kind+"/k="+string(rune('0'+k)), func(t *testing.T) {
					compiled, tree := differentialPair(t, rp.Opts)
					for _, rt := range []*stat4p4.Runtime{compiled, tree} {
						if _, err := rt.Bind(preset(lib.Opts, kind, k)); err != nil {
							t.Fatal(err)
						}
						if last := lib.Opts.Stages - 1; last > 0 {
							b := preset(lib.Opts, "freq-proto", 2)
							b.Stage, b.Slot = last, lib.Opts.Slots-1
							if _, err := rt.Bind(b); err != nil {
								t.Fatal(err)
							}
						}
						if _, err := rt.AddRoute(packet.Prefix{Addr: packet.ParseIP4(10, 0, 0, 0), Len: 17}, 3); err != nil {
							t.Fatal(err)
						}
					}
					rng := rand.New(rand.NewSource(int64(len(kind)) + int64(k)))
					ts := uint64(0)
					for i := 0; i < 2000; i++ {
						ts += uint64(rng.Intn(1 << 11))
						var frame []byte
						switch r := rng.Intn(8); {
						case r == 0:
							frame = packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, int16(rng.Intn(511)-255)).Serialize()
						case r == 1:
							frame = packet.NewTCPFrame(packet.ParseIP4(192, 0, 2, byte(rng.Intn(4))),
								packet.ParseIP4(10, 0, byte(rng.Intn(256)), 1), 1234, uint16(rng.Intn(64)), packet.FlagSYN).Serialize()
						default:
							// A skewed mix: a few hot destinations and sources,
							// so digests, promotions and evictions all happen.
							d, s := byte(rng.Intn(256)), byte(rng.Intn(64))
							if rng.Intn(2) == 0 {
								d, s = byte(rng.Intn(3)), byte(rng.Intn(2))
							}
							frame = packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, s),
								packet.ParseIP4(10, 0, d, 1), 1000, uint16(rng.Intn(64)), rng.Intn(200)).Serialize()
						}
						replayBoth(t, compiled, tree, ts, uint16(i%3), frame)
					}
					compareState(t, compiled, tree)
				})
			}
		}
	}
}

// TestModifyChurnBounded rebinds one entry of the daemon's program 10 000
// times through Unbind and Bind, alternating kinds and arguments: each
// delete gives the old traces' pool constants back, so the stream and the
// pool stay the size the first rebind left them. The survivor must still
// match the tree walker.
func TestModifyChurnBounded(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	compiled, tree := differentialPair(t, opts)
	lib := compiled.Library()
	id, err := compiled.Bind(preset(lib.Opts, "freq-dst", 0))
	if err != nil {
		t.Fatal(err)
	}
	binding := func(i int) stat4p4.Binding {
		b := preset(lib.Opts, []string{"window", "freq-dst", "entropy-dst", "hh-src"}[i%4], uint64(i%3))
		b.Slot = i / 4 % 2
		b.IntervalShift = uint(8 + i%5)
		return b
	}
	rebind := func(b stat4p4.Binding) {
		t.Helper()
		if err := compiled.Unbind(b.Stage, id); err != nil {
			t.Fatal(err)
		}
		if id, err = compiled.Bind(b); err != nil {
			t.Fatal(err)
		}
	}
	rebind(binding(0))
	stream, pool := p4.CompiledSize(compiled.Switch())
	for i := 1; i < n; i++ {
		rebind(binding(i))
	}
	if s, p := p4.CompiledSize(compiled.Switch()); s > stream || p > pool {
		t.Fatalf("after %d rebinds the stream is %d ops and the pool %d constants, after the first %d and %d", n, s, p, stream, pool)
	}

	if _, err := tree.Bind(binding(n - 1)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		dst := packet.ParseIP4(10, 0, byte(rng.Intn(4)), 1)
		frame := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, byte(rng.Intn(4))), dst, 1000, 80, 0).Serialize()
		replayBoth(t, compiled, tree, uint64(i)*1500, 1, frame)
	}
	compareState(t, compiled, tree)
}

// TestRebindStormConcurrentWithForkedBatches rebinds the daemon program's
// entry on every shard between forked batches, through Unbind and Bind — from
// a goroutine other than ProcessBatch's caller, while the shard workers that
// run the next batch read the rebuilt traces — and reads every shard's
// control plane during the batches. The merged snapshot must equal a serial replay that applied the
// same rebinds at the same batch boundaries. Run with -race.
func TestRebindStormConcurrentWithForkedBatches(t *testing.T) {
	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	lib := stat4p4.Build(opts)
	sr, err := stat4p4.NewShardedRuntime(lib, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	serial, err := stat4p4.NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	kinds := [2]stat4p4.Binding{preset(opts, "freq-dst", 2), preset(opts, "freq-proto", 0)}
	id, err := sr.Bind(kinds[0])
	if err != nil {
		t.Fatal(err)
	}
	serialID, err := serial.Bind(kinds[0])
	if err != nil {
		t.Fatal(err)
	}
	rebind := func(rt *stat4p4.Runtime, id *p4.EntryID, i int) {
		b := kinds[i%2]
		b.Base += uint64(i % 3) // other arguments too, not only the other kind
		if err := rt.Unbind(b.Stage, *id); err != nil {
			t.Error(err)
			return
		}
		var err error
		if *id, err = rt.Bind(b); err != nil {
			t.Error(err)
		}
	}

	const batches = 8
	frames := p4.ForkFrames + 512
	rng := rand.New(rand.NewSource(8))
	batch := make([][]p4.FrameIn, batches)
	for b := range batch {
		for i := 0; i < frames; i++ {
			dst := packet.ParseIP4(10, 0, byte(rng.Intn(256)), 1)
			src := packet.ParseIP4(192, 0, 2, byte(rng.Intn(256)))
			proto := []func(s, d packet.IP4) *packet.Packet{
				func(s, d packet.IP4) *packet.Packet { return packet.NewUDPFrame(s, d, 1000, 80, rng.Intn(32)) },
				func(s, d packet.IP4) *packet.Packet { return packet.NewTCPFrame(s, d, 1234, 80, packet.FlagSYN) },
			}[rng.Intn(2)]
			batch[b] = append(batch[b], p4.FrameIn{TsNs: uint64(b*frames+i) * 100, Port: 1, Data: proto(src, dst).Serialize()})
		}
	}

	turn, done := make(chan int), make(chan struct{})
	go func() { // the control plane: every shard rebound at each boundary
		for i := range turn {
			rebind(sr, &id, i)
			done <- struct{}{}
		}
	}()
	hammer := func() {
		for s := 0; s < sr.NumShards(); s++ {
			sw := sr.Sharded().Shard(s)
			sw.Stats()
			sw.Snapshot()
		}
	}
	stop := make(chan struct{})
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for {
			select {
			case <-stop:
				return
			default:
				hammer()
			}
		}
	}()
	for b := 0; b < batches; b++ {
		sr.Sharded().ProcessBatch(batch[b], nil)
		turn <- b
		<-done
	}
	close(turn)
	close(stop)
	<-readers

	for b := 0; b < batches; b++ {
		serial.Sharded().ProcessBatch(batch[b], nil)
		rebind(serial, &serialID, b)
	}
	merged := sr.Sharded().MergedSnapshot()
	want := serial.Switch().Snapshot()
	for _, rd := range lib.Prog.Registers {
		if rd.Merge == p4.MergeDerived {
			clear(want.Registers[rd.Name])
		}
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatal("merged snapshot after the rebind storm differs from the serial replay")
	}
	if sc, ss := serial.Switch().Stats(), sr.Sharded().Stats(); sc.PktsIn != ss.PktsIn || sc.PktsOut != ss.PktsOut {
		t.Fatalf("stats differ: serial %+v, sharded %+v", sc, ss)
	}
}
