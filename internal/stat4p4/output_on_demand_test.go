package stat4p4

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// onDemandCases are the emitted programs output-on-demand is pinned over:
// every measure family, plus the echo app, whose EchoDeparser is the one
// deparser that reads what the program computed.
var onDemandCases = []struct {
	name    string
	opts    Options
	digests bool // the trace makes this binding alert
	bind    func(rt *Runtime) error
}{
	{"freq", Options{Slots: 2, Size: 64, Stages: 2}, false, func(rt *Runtime) error {
		if _, err := rt.BindFreqDst(0, 0, AllIPv4(), 0, uint64(packet.ParseIP4(10, 0, 0, 0)), 64, 1, 1, 1); err != nil {
			return err
		}
		_, err := rt.BindFreqLen(1, 1, AllIPv4(), 0, 42, 32, 1, 1, 0)
		return err
	}},
	{"window", Options{Slots: 1, Size: 64, Stages: 1}, true, func(rt *Runtime) error {
		_, err := rt.BindWindow(0, 0, AllIPv4(), 8, 8, 1)
		return err
	}},
	// sparse: a hash-addressed frequency distribution — the flow binding
	// that never expires an entry (epoch shift 63, TTL 1).
	{"sparse", Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 64}, false, func(rt *Runtime) error {
		_, err := rt.BindFlowDst(0, 0, AllIPv4(), 0, 63, 1, 0, 2)
		return err
	}},
	{"entropy+hh", Options{Slots: 2, Size: 64, Stages: 1, Entropy: true, HeavyHitter: true}, true, func(rt *Runtime) error {
		if _, err := rt.BindEntropyDst(0, 0, DstIn(packet.Prefix{Addr: packet.ParseIP4(10, 0, 0, 0), Len: 24}), 0,
			uint64(packet.ParseIP4(10, 0, 0, 0)), 64, uint64(6)<<16, 1); err != nil {
			return err
		}
		_, err := rt.BindHeavyHitterSrc(0, 1, DstIn(packet.Prefix{Addr: packet.ParseIP4(10, 0, 1, 0), Len: 24}), 0, 1)
		return err
	}},
	{"flow", Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 64}, true, func(rt *Runtime) error {
		_, err := rt.BindFlowDst(0, 0, AllIPv4(), 0, 10, 1, 0, 2)
		return err
	}},
	{"echo", Options{Slots: 2, Size: 512, Stages: 2, Echo: true}, true, func(rt *Runtime) error {
		if _, err := rt.BindFreqEcho(0, 0, EchoOnly(), EchoBias-255, 512, 1, 1, 0); err != nil {
			return err
		}
		_, err := rt.BindWindow(1, 1, AllIPv4(), 8, 8, 1)
		return err
	}},
}

// onDemandTrace is a seeded mix of everything the counters distinguish: UDP
// over two /24s (one per bound measure), frames into a drop route, echo
// requests from several stations, and unparseable bytes.
func onDemandTrace(seed int64, n int) []p4.FrameIn {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]p4.FrameIn, n)
	ts := uint64(0)
	for i := range frames {
		ts += uint64(rng.Intn(300))
		var data []byte
		switch k := rng.Intn(16); {
		case k == 0:
			data = []byte{byte(i), 0xde, 0xad}
		case k == 1:
			dst := packet.ParseIP4(10, 9, 0, byte(rng.Intn(8)))
			data = packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, 0).Serialize()
		case k < 5:
			v := int16(rng.Intn(511) - 255)
			data = packet.NewEchoFrame(packet.MAC{1, byte(rng.Intn(8))}, packet.MAC{2}, v).Serialize()
		default:
			src := packet.ParseIP4(192, 0, 2, byte(rng.Intn(6)))
			dst := packet.ParseIP4(10, 0, byte(rng.Intn(2)), byte(rng.Intn(64)))
			data = packet.NewUDPFrame(src, dst, uint16(1024+rng.Intn(16)), 80, rng.Intn(22)).Serialize()
		}
		frames[i] = p4.FrameIn{TsNs: ts, Port: uint16(i % 3), Data: data}
	}
	return frames
}

type savedFrame struct {
	port uint16
	data []byte
}

// TestOutputOnDemandEquivalence pins that taking no output changes nothing
// but the output. Three n-shard deployments of each program see the same
// trace: one through ProcessBatch(batch, nil), one through ProcessBatch with
// a collecting emit, and — the reference — one fed frame by frame through
// the shards' ProcessFrame, the entry point that always deparses, each batch
// replayed shard by shard. All three must agree on every shard's registers
// and every Stats field, on the merged snapshot, and on the digests and
// their order; the collected frames must be byte-identical to the
// reference's in the reduce order (shard-index, then arrival).
func TestOutputOnDemandEquivalence(t *testing.T) {
	for _, tc := range onDemandCases {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, n), func(t *testing.T) {
				checkOutputOnDemand(t, tc.opts, tc.bind, tc.digests, n)
			})
		}
	}
}

func checkOutputOnDemand(t *testing.T, opts Options, bind func(*Runtime) error, wantDigests bool, n int) {
	const batchSize = 96
	lib := Build(opts)
	var srs [3]*Runtime
	var digests [3][]p4.Digest
	for j := range srs {
		sr, err := NewShardedRuntime(lib, n)
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Close()
		if _, err := sr.AddDropRoute(packet.Prefix{Addr: packet.ParseIP4(10, 9, 0, 0), Len: 16}); err != nil {
			t.Fatal(err)
		}
		if err := bind(sr); err != nil {
			t.Fatal(err)
		}
		got := &digests[j]
		sr.Sharded().SetDigestSink(func(d p4.Digest) { *got = append(*got, d) })
		srs[j] = sr
	}
	quiet, loud, ref := srs[0].Sharded(), srs[1].Sharded(), srs[2].Sharded()

	frames := onDemandTrace(int64(7+n), 3000)
	for lo := 0; lo < len(frames); lo += batchSize {
		batch := frames[lo:min(lo+batchSize, len(frames))]
		quiet.ProcessBatch(batch, nil)

		var got, want []savedFrame
		loud.ProcessBatch(batch, func(o p4.FrameOut) {
			got = append(got, savedFrame{o.Port, append([]byte(nil), o.Data...)})
		})
		for s := 0; s < n; s++ {
			for _, f := range batch {
				if ref.ShardOf(f.Data) != s {
					continue
				}
				for _, o := range ref.ProcessFrame(f.TsNs, f.Port, f.Data) {
					want = append(want, savedFrame{o.Port, append([]byte(nil), o.Data...)})
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("batch at %d: emitted %d frames, reference %d", lo, len(got), len(want))
		}
		for i := range want {
			if got[i].port != want[i].port || !bytes.Equal(got[i].data, want[i].data) {
				t.Fatalf("batch at %d: output frame %d differs from the reference", lo, i)
			}
		}
	}

	wantStats := ref.Stats()
	if wantStats.PktsOut == 0 || wantStats.Dropped == 0 || wantStats.ParseErrors == 0 {
		t.Fatalf("trace exercises too little: %+v", wantStats)
	}
	if opts.HeavyHitter && wantStats.Recirculated == 0 {
		t.Fatal("no packet recirculated")
	}
	if wantDigests && len(digests[2]) == 0 {
		t.Fatal("no digest fired")
	}
	for j, ss := range []*p4.ShardedSwitch{quiet, loud} {
		side := [...]string{"emit == nil", "collecting emit"}[j]
		for s := 0; s < n; s++ {
			if got, want := ss.Shard(s).Stats(), ref.Shard(s).Stats(); got != want {
				t.Fatalf("%s: shard %d stats %+v, reference %+v", side, s, got, want)
			}
			if !reflect.DeepEqual(ss.Shard(s).Snapshot(), ref.Shard(s).Snapshot()) {
				t.Fatalf("%s: shard %d snapshot differs from the reference", side, s)
			}
		}
		if got := ss.Stats(); got != wantStats {
			t.Fatalf("%s: stats %+v, reference %+v", side, got, wantStats)
		}
		if !reflect.DeepEqual(ss.MergedSnapshot(), ref.MergedSnapshot()) {
			t.Fatalf("%s: merged snapshot differs from the reference", side)
		}
		if !reflect.DeepEqual(digests[j], digests[2]) {
			t.Fatalf("%s: %d digests, reference %d, or their order differs", side, len(digests[j]), len(digests[2]))
		}
	}
}
