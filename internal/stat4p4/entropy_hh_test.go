package stat4p4

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/baseline"
	"stat4/internal/core"
	"stat4/internal/intstat"
	"stat4/internal/packet"
)

var entropyOpts = Options{Slots: 1, Size: 256, Stages: 1, Entropy: true}

// entropyRuntime builds an entropy-enabled runtime with a dst-group binding
// over dstBase/24's low byte and no in-switch check (h0 = 0).
func entropyRuntime(t testing.TB, opts Options, h0, checkEvery uint64) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Build(opts))
	if err != nil {
		t.Fatal(err)
	}
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	if _, err := rt.Bind(Binding{Kind: "entropy-dst", Match: AllIPv4(),
		Base: dstBase, Size: opts.Size, H0: h0, CheckEvery: checkEvery}); err != nil {
		t.Fatal(err)
	}
	return rt
}

func sendDst(rt *Runtime, ts uint64, low byte) {
	dst := packet.ParseIP4(10, 0, 0, low)
	frame := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, 0).Serialize()
	rt.Sharded().ProcessFrame(ts, 1, frame)
}

// TestEntropyMatchesRederive pins the incremental accumulator against every
// other way of computing it: the rederive from the final counters (the
// canonicalisation arithmetic), core.Entropy fed the same value stream, and
// the float64 baseline within the committed per-frac error bound.
func TestEntropyMatchesRederive(t *testing.T) {
	rt := entropyRuntime(t, entropyOpts, 0, 0)
	dist := core.NewFreqDist(entropyOpts.Size)
	ent := dist.TrackEntropy(rt.Library().Opts.EntropyFrac)

	rng := rand.New(rand.NewSource(42))
	const packets = 5000
	for i := 0; i < packets; i++ {
		// Skewed mix: half the traffic in 8 groups, the rest spread.
		var low byte
		if rng.Intn(2) == 0 {
			low = byte(rng.Intn(8))
		} else {
			low = byte(rng.Intn(256))
		}
		sendDst(rt, uint64(i), low)
		if err := dist.Observe(uint64(low)); err != nil {
			t.Fatal(err)
		}
	}

	snap := mustRead(t, rt, Entropy, 0)
	if snap.Total != packets {
		t.Fatalf("Total = %d, sent %d", snap.Total, packets)
	}
	if snap.Sum != ent.Sum() {
		t.Fatalf("datapath S = %d, core.Entropy S = %d", snap.Sum, ent.Sum())
	}
	counters := mustRead(t, rt, Counters, 0)
	frac := rt.Library().Opts.EntropyFrac
	var rederived uint64
	for _, f := range counters {
		rederived += f * intstat.Log2Fixed(f, frac)
	}
	if snap.Sum != rederived {
		t.Fatalf("incremental S = %d, rederived from counters = %d", snap.Sum, rederived)
	}
	want := baseline.Entropy(counters)
	if diff := math.Abs(snap.Bits - want); diff > 0.07 {
		t.Fatalf("entropy %.4f bits, float64 baseline %.4f (diff %.4f)", snap.Bits, want, diff)
	}

	// The stored per-cell contributions must equal f·log2fix(f) exactly.
	cells := rt.Switch().Snapshot().Registers[RegEntCell]
	for i, f := range counters {
		if want := f * intstat.Log2Fixed(f, frac); cells[i] != want {
			t.Fatalf("cell %d: stored contribution %d, want %d (f=%d)", i, cells[i], want, f)
		}
	}
}

// TestEntropyAlertFires drives the in-switch collapse check: a uniform mix
// stays above the threshold and emits nothing; a single-destination flood
// collapses the distribution and fires DigestEntropy, rate-limited by
// checkEvery. checkEvery doubles as the warmup: at T observations the
// entropy cannot exceed log2(T), so the first check must wait until a
// healthy mix can clear the threshold.
func TestEntropyAlertFires(t *testing.T) {
	frac := uint(16)
	// Threshold: 4 bits of scaled entropy (distribution over 256 groups has
	// 8 bits uniform, 0 collapsed).
	h0 := uint64(4) << frac
	const checkEvery = 1024
	rt := entropyRuntime(t, entropyOpts, h0, checkEvery)

	ts := uint64(0)
	for i := 0; i < 2048; i++ {
		sendDst(rt, ts, byte(i))
		ts++
	}
	if digests := drainAnomalies(rt.Sharded()); len(digests) != 0 {
		t.Fatalf("uniform stream fired %d digests: %+v", len(digests), digests[0])
	}

	// Flood one destination group until the mix collapses below 4 bits.
	for i := 0; i < 20000; i++ {
		sendDst(rt, ts, 7)
		ts++
	}
	digests := drainAnomalies(rt.Sharded())
	if len(digests) == 0 {
		t.Fatal("collapse fired no digests")
	}
	for _, d := range digests {
		if d.ID != DigestEntropy {
			t.Fatalf("digest ID %d, want DigestEntropy", d.ID)
		}
		if d.Values[0] != 0 {
			t.Fatalf("digest slot %d, want 0", d.Values[0])
		}
		// The division-free comparison the digest reports must itself hold:
		// H·T·2^frac < h0·T.
		if d.Values[2] >= d.Values[3] {
			t.Fatalf("digest carries H·T = %d >= h0·T = %d", d.Values[2], d.Values[3])
		}
		if d.Values[1]&(checkEvery-1) != 0 {
			t.Fatalf("alert at T = %d violates checkEvery = %d", d.Values[1], checkEvery)
		}
	}
	if snap := mustRead(t, rt, Entropy, 0); snap.Bits >= 4 {
		t.Fatalf("post-flood entropy %.3f bits, expected collapse below 4", snap.Bits)
	}
}

// TestEntropyShardedCanonical is the byte-identity theorem extended to the
// entropy registers: after the same stream, the sharded deployment's merged
// snapshot equals the canonicalised serial snapshot bit for bit — including
// RegEntCell and RegEntSum, which canonicalisation rebuilds from the merged
// counters — at both 64-bit and the deployable 32-bit cell width.
func TestEntropyShardedCanonical(t *testing.T) {
	for _, opts := range []Options{
		{Slots: 2, Size: 64, Stages: 1, Entropy: true},
		{Slots: 2, Size: 64, Stages: 1, Entropy: true, CellWidth: 32},
	} {
		lib := Build(opts)
		rt, err := NewRuntime(lib)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewShardedRuntime(lib, 3)
		if err != nil {
			t.Fatal(err)
		}
		dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
		if _, err := rt.Bind(Binding{Kind: "entropy-dst", Match: AllIPv4(), Base: dstBase, Size: 64}); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Bind(Binding{Kind: "entropy-dst", Match: AllIPv4(), Base: dstBase, Size: 64}); err != nil {
			t.Fatal(err)
		}
		driveBoth(rt, sr, 314, 3000)

		serial := rt.Switch().Snapshot()
		lib.CanonicalizeSnapshot(serial, sr.FreqSlots())
		merged := sr.MergedSnapshot()
		for name, want := range serial.Registers {
			if got := merged.Registers[name]; !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d: register %q diverges\nmerged: %v\nserial: %v",
					opts.CellWidth, name, got, want)
			}
		}

		// The merged entropy reading equals the serial one: the serial S is
		// incremental, the merged S is rederived, and the two are the same
		// number by the telescoping argument.
		if ms, ss := mustRead(t, sr, Entropy, 0), mustRead(t, rt, Entropy, 0); ms != ss {
			t.Fatalf("width %d: merged entropy %+v, serial %+v", opts.CellWidth, ms, ss)
		}
		sr.Close()
	}
}

var hhOpts = Options{Slots: 1, Size: 64, Stages: 1, HeavyHitter: true}

// TestHeavyHitterPromotion streams one elephant flow through a mice
// background and checks the probabilistic-recirculation pipeline end to end:
// the elephant is promoted, sits on top of the candidate table, and the
// promotion ledger balances — every recirculated packet either claimed a
// bucket, bumped a count, or was rejected.
func TestHeavyHitterPromotion(t *testing.T) {
	rt, err := NewRuntime(Build(hhOpts))
	if err != nil {
		t.Fatal(err)
	}
	// Flow key = full source address (shift 0); recirculate 1 packet in 4.
	if _, err := rt.Bind(Binding{Kind: "hh-src", Match: AllIPv4(), SampleShift: 2}); err != nil {
		t.Fatal(err)
	}

	elephant := packet.ParseIP4(203, 0, 113, 50)
	dst := packet.ParseIP4(10, 0, 0, 1)
	rng := rand.New(rand.NewSource(7))
	ts := uint64(0)
	send := func(src packet.IP4) {
		frame := packet.NewUDPFrame(src, dst, 1000, 80, 0).Serialize()
		rt.Sharded().ProcessFrame(ts, 1, frame)
		ts++
	}
	for i := 0; i < 4000; i++ {
		send(elephant)
		if i%2 == 0 {
			send(packet.ParseIP4(198, 18, byte(rng.Intn(256)), byte(rng.Intn(256))))
		}
	}

	stats := rt.Switch().Stats()
	if stats.Recirculated == 0 {
		t.Fatal("no packets recirculated")
	}
	hh := mustRead(t, rt, HeavyHitters, 0)
	entries := hh.Entries
	if len(entries) == 0 {
		t.Fatal("candidate table empty")
	}
	if entries[0].Key != uint64(elephant) {
		t.Fatalf("top candidate key %#x, elephant is %#x", entries[0].Key, uint64(elephant))
	}
	// ~4000/4 = 1000 expected promotions; a top count below 500 would mean
	// the sampling gate is not ~2^-2.
	if entries[0].Count < 500 {
		t.Fatalf("elephant promoted only %d times over 4000 packets at 2^-2", entries[0].Count)
	}

	rejected := hh.Rejected
	var promoted uint64
	for _, e := range entries {
		promoted += e.Count
	}
	if promoted+rejected != stats.Recirculated {
		t.Fatalf("promotion ledger: %d counted + %d rejected != %d recirculated",
			promoted, rejected, stats.Recirculated)
	}

	// One DigestHeavyHitter per claimed bucket, and the elephant's key is
	// among them.
	var sawElephant bool
	digests := drainAnomalies(rt.Sharded())
	for _, d := range digests {
		if d.ID != DigestHeavyHitter {
			t.Fatalf("digest ID %d, want DigestHeavyHitter", d.ID)
		}
		if d.Values[1] == uint64(elephant) {
			sawElephant = true
		}
	}
	if len(digests) != len(entries) {
		t.Fatalf("%d promotion digests for %d occupied buckets", len(digests), len(entries))
	}
	if !sawElephant {
		t.Fatal("no promotion digest carried the elephant's key")
	}
}

// TestMergedHeavyHitters checks the controller-side merge: candidate tables
// are replica-local, so the merged view unions by key and sums counts, the
// merged snapshot zeroes the raw registers, the elephant's merged count
// equals the sum of its per-shard counts, and rejections sum.
func TestMergedHeavyHitters(t *testing.T) {
	lib := Build(hhOpts)
	sr, err := NewShardedRuntime(lib, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, err := sr.Bind(Binding{Kind: "hh-src", Match: AllIPv4(), SampleShift: 1}); err != nil {
		t.Fatal(err)
	}

	elephant := packet.ParseIP4(203, 0, 113, 50)
	dst := packet.ParseIP4(10, 0, 0, 1)
	for i := 0; i < 3000; i++ {
		frame := packet.NewUDPFrame(elephant, dst, 1000, 80, 0).Serialize()
		sr.Sharded().ProcessFrame(uint64(i), 1, frame)
	}
	// A tail of one-packet sources overflows both shards' tables.
	for i := 0; i < 2000; i++ {
		frame := packet.NewUDPFrame(packet.ParseIP4(198, 18, byte(i>>8), byte(i)), dst, 1000, 80, 0).Serialize()
		sr.Sharded().ProcessFrame(uint64(3000+i), 1, frame)
	}

	hh := mustRead(t, sr, HeavyHitters, 0)
	merged := hh.Entries
	if len(merged) == 0 || merged[0].Key != uint64(elephant) {
		t.Fatalf("merged candidates %v, want elephant %#x on top", merged, uint64(elephant))
	}
	var perShard, rejected uint64
	for i := 0; i < sr.NumShards(); i++ {
		shard := mustReadShard(t, sr, HeavyHitters, i, 0)
		rejected += shard.Rejected
		for _, e := range shard.Entries {
			if e.Key == uint64(elephant) {
				perShard += e.Count
			}
		}
	}
	if merged[0].Count != perShard {
		t.Fatalf("merged count %d, per-shard sum %d", merged[0].Count, perShard)
	}
	if rejected == 0 || hh.Rejected != rejected {
		t.Fatalf("merged rejections %d, per-shard sum %d", hh.Rejected, rejected)
	}

	// Replica-local registers are zero in the merged snapshot — the byte
	// identity with a canonicalised serial snapshot is trivial by design.
	snap := sr.MergedSnapshot()
	for _, reg := range []string{RegHHKeys, RegHHCounts} {
		for i, v := range snap.Registers[reg] {
			if v != 0 {
				t.Fatalf("merged %s[%d] = %d, want 0", reg, i, v)
			}
		}
	}
}

// TestEntropyHHComposed exercises the composed registry configuration — the
// one whose recirculation pass rides on the same stage budget. With a single
// binding stage the two measures partition the traffic by match: entropy
// over one destination prefix, heavy hitters over another, sharing the
// packet loop, the metadata bus and the stage budget. The compiled-vs-tree
// half of this test lives in internal/p4 under the same name.
func TestEntropyHHComposed(t *testing.T) {
	opts := Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	rt, err := NewRuntime(Build(opts))
	if err != nil {
		t.Fatal(err)
	}
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	entPfx := packet.Prefix{Addr: packet.ParseIP4(10, 0, 0, 0), Len: 24}
	hhPfx := packet.Prefix{Addr: packet.ParseIP4(10, 0, 1, 0), Len: 24}
	if _, err := rt.Bind(Binding{Kind: "entropy-dst", Match: DstIn(entPfx),
		Base: dstBase, Size: 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Bind(Binding{Kind: "hh-src", Slot: 1, Match: DstIn(hhPfx), SampleShift: 1}); err != nil {
		t.Fatal(err)
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
		rt.Sharded().ProcessFrame(uint64(i)*7, 1, frame)
	}

	snap := mustRead(t, rt, Entropy, 0)
	counters := mustRead(t, rt, Counters, 0)
	frac := rt.Library().Opts.EntropyFrac
	var rederived uint64
	for _, f := range counters {
		rederived += f * intstat.Log2Fixed(f, frac)
	}
	if snap.Sum != rederived {
		t.Fatalf("composed program: incremental S = %d, rederived %d", snap.Sum, rederived)
	}
	if len(mustRead(t, rt, HeavyHitters, 1).Entries) == 0 {
		t.Fatal("composed program promoted no heavy hitters")
	}
}

// TestEntropyResetSlot checks ResetSlot forgets the entropy registers along
// with the counters, and the heavy-hitter variant forgets the candidate
// table.
func TestEntropyResetSlot(t *testing.T) {
	rt := entropyRuntime(t, entropyOpts, 0, 0)
	for i := 0; i < 100; i++ {
		sendDst(rt, uint64(i), byte(i))
	}
	if err := rt.ResetSlot(0); err != nil {
		t.Fatal(err)
	}
	if snap := mustRead(t, rt, Entropy, 0); snap.Total != 0 || snap.Sum != 0 {
		t.Fatalf("after reset: %+v", snap)
	}
	cells := rt.Switch().Snapshot().Registers[RegEntCell]
	for i, v := range cells {
		if v != 0 {
			t.Fatalf("after reset: entropy cell %d = %d", i, v)
		}
	}

	hrt, err := NewRuntime(Build(hhOpts))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hrt.Bind(Binding{Kind: "hh-src", Match: AllIPv4()}); err != nil {
		t.Fatal(err)
	}
	src := packet.ParseIP4(203, 0, 113, 50)
	frame := packet.NewUDPFrame(src, packet.ParseIP4(10, 0, 0, 1), 1000, 80, 0).Serialize()
	for i := 0; i < 64; i++ {
		hrt.Sharded().ProcessFrame(uint64(i), 1, frame)
	}
	if len(mustRead(t, hrt, HeavyHitters, 0).Entries) == 0 {
		t.Fatal("sampleShift 0 promoted nothing")
	}
	if err := hrt.ResetSlot(0); err != nil {
		t.Fatal(err)
	}
	if hh := mustRead(t, hrt, HeavyHitters, 0); len(hh.Entries) != 0 {
		t.Fatalf("candidate table survived reset: %v", hh.Entries)
	} else if hh.Rejected != 0 {
		t.Fatalf("reject counter survived reset: %d", hh.Rejected)
	}
}
