package stat4p4

import (
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/flowtable"
	"stat4/internal/packet"
)

// TestFlowCrossValidation is the bit-exactness theorem of the flow-table
// mode: the emitted 2-left table and internal/flowtable use the same hash
// family, layout, epoch clock and claim order, so after the same key/ts
// stream every bucket, every count, every stamp and the whole admission
// ledger must agree exactly — including under expiry churn and a 2^-2
// admission coin.
func TestFlowCrossValidation(t *testing.T) {
	const (
		size        = 256
		epochShift  = 12
		ttl         = 2
		sampleShift = 2
	)
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: size})
	if _, err := rt.BindFlowDst(0, 0, AllIPv4(), 0, epochShift, ttl, sampleShift, 0); err != nil {
		t.Fatal(err)
	}
	ref := flowtable.New(flowtable.Config{
		Buckets: size, EpochShift: epochShift, TTL: ttl, SampleShift: sampleShift,
	})
	sw := rt.Sharded()
	rng := rand.New(rand.NewSource(9))

	var ts uint64
	for i := 0; i < 30000; i++ {
		// ~1.5× capacity of churning keys over many epochs: hits, claims,
		// expirations, evictions, rejections and sheds all occur.
		key := uint64(rng.Intn(384)) + 1
		ts += uint64(rng.Intn(1 << 9))
		sw.ProcessFrame(ts, 1, packet.NewUDPFrame(1, packet.IP4(key), 5, 80, 10).Serialize())
		ref.Touch(key, ts)
	}

	entries := mustRead(t, rt, Flows, 0).Entries
	want := map[uint64]flowtable.Entry{}
	ref.Each(func(e flowtable.Entry) { want[e.Key] = e })
	if len(entries) != len(want) {
		t.Fatalf("switch tracks %d buckets, host table %d", len(entries), len(want))
	}
	for _, e := range entries {
		w, ok := want[e.Key]
		if !ok || w.Count != e.Count || w.Stamp != e.Stamp {
			t.Fatalf("key %d: switch {count %d, stamp %d}, host %+v (ok=%v)",
				e.Key, e.Count, e.Stamp, w, ok)
		}
	}

	st := mustRead(t, rt, FlowLedger, 0)
	hs := ref.Stats()
	if st.Admitted != hs.Admitted || st.Evicted != hs.Evicted ||
		st.Rejected != hs.Rejected || st.Shed != hs.Shed {
		t.Fatalf("ledger diverges: switch %+v, host %+v", st, hs)
	}
	if st.Occupied != uint64(ref.Occupied()) {
		t.Fatalf("occupied: switch %d, host %d", st.Occupied, ref.Occupied())
	}
	for name, v := range map[string]uint64{
		"evictions": st.Evicted, "rejections": st.Rejected, "sheds": st.Shed,
	} {
		if v == 0 {
			t.Fatalf("test vacuous: no %s at 150%% churn load", name)
		}
	}

	// The slot moments track exactly the occupied buckets (live and stale):
	// N = buckets, Xsum = Σ counts, Xsumsq = Σ counts².
	m := mustRead(t, rt, Moments, 0)
	var n, xsum, xsumsq uint64
	ref.Each(func(e flowtable.Entry) {
		n++
		xsum += e.Count
		xsumsq += e.Count * e.Count
	})
	if m.N != n || m.Xsum != xsum || m.Xsumsq != xsumsq {
		t.Fatalf("moments: switch (N=%d,Σ=%d,Σ²=%d), host-derived (%d,%d,%d)",
			m.N, m.Xsum, m.Xsumsq, n, xsum, xsumsq)
	}
}

// TestFlowHotFlowAlert: with k armed, a flow whose count breaks mean+kσ of
// the tracked population raises the anomaly digest naming the flow key —
// hot-flow detection over an effectively unbounded key domain.
func TestFlowHotFlowAlert(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 128})
	if _, err := rt.BindFlowDst(0, 0, AllIPv4(), 0, 30, 8, 0, 2); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	rng := rand.New(rand.NewSource(4))
	hot := packet.ParseIP4(10, 9, 9, 9)
	for i := 0; i < 4000; i++ {
		dst := packet.IP4(uint32(rng.Intn(48)) + 1)
		if i%4 == 0 {
			dst = hot
		}
		sw.ProcessFrame(uint64(i)*1000, 1, packet.NewUDPFrame(1, dst, 5, 80, 10).Serialize())
	}
	digests := drainAnomalies(sw)
	if len(digests) == 0 {
		t.Fatal("hot flow raised no anomaly digest")
	}
	for _, d := range digests {
		if d.Values[1] != uint64(hot) {
			t.Fatalf("digest names key %d, want %d", d.Values[1], uint64(hot))
		}
	}
}

// TestFlowNoExpiryMatchesDense pins the idiom that retired the hash-bucket
// mode: bound with epoch shift 63 and TTL 1 the epoch is ts >> 63, constant,
// so every stamp has age 0 < TTL and nothing ever expires — the flow table is
// then a hash-addressed frequency distribution. One stream into a dense
// freq-dst slot and a never-expiring flow-dst slot, both armed at 2σ, must
// leave the same moments and raise the same alerts, over timestamps that span
// 2^40 ns so "never ages" is exercised, not assumed.
func TestFlowNoExpiryMatchesDense(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 2, Size: 256, Stages: 2, FlowTable: true, FlowTableSize: 1024, DigestBuf: 1 << 16})
	if _, err := rt.BindFreqDst(0, 0, AllIPv4(), 0, 0, 256, 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BindFlowDst(1, 1, AllIPv4(), 0, 63, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	rng := rand.New(rand.NewSource(21))
	const hot = 200
	var ts uint64
	for i := 0; i < 20000; i++ {
		dst := packet.IP4(rng.Intn(40) + 1)
		if i%5 == 0 {
			dst = hot
		}
		ts = uint64(i) << 26
		sw.ProcessFrame(ts, 1, packet.NewUDPFrame(1, dst, 5, 80, 10).Serialize())
	}
	if ts < 1<<40 {
		t.Fatalf("timestamps end at %d, short of 2^40", ts)
	}

	dense := mustRead(t, rt, Moments, 0)
	flow := mustRead(t, rt, Moments, 1)
	if dense.N != 41 || dense.SD == 0 {
		t.Fatalf("test vacuous: dense moments %+v", dense)
	}
	if flow.N != dense.N || flow.Xsum != dense.Xsum || flow.Xsumsq != dense.Xsumsq ||
		flow.Var != dense.Var || flow.SD != dense.SD {
		t.Fatalf("moments diverge:\nflow  %+v\ndense %+v", flow, dense)
	}
	st := mustRead(t, rt, FlowLedger, 1)
	if st.Evicted != 0 || st.Rejected != 0 || st.Shed != 0 || st.Occupied != dense.N {
		t.Fatalf("ledger %+v: want %d admissions and nothing else", st, dense.N)
	}

	// Same alerts, packet for packet: with base 0 the dense value index is
	// the flow key, so the payloads agree in full, not just in number.
	var bySlot [2][][]uint64
	for _, d := range drainAnomalies(sw) {
		bySlot[d.Values[0]] = append(bySlot[d.Values[0]], d.Values[1:])
	}
	if len(bySlot[0]) == 0 {
		t.Fatal("test vacuous: the hot key raised no alert")
	}
	if !reflect.DeepEqual(bySlot[0], bySlot[1]) {
		t.Fatalf("dense raised %d alerts, flow %d, or their payloads differ", len(bySlot[0]), len(bySlot[1]))
	}
}

// TestFlowShardedCanonicalEquivalence is the acceptance criterion: with a
// flow-table binding active and evictions occurring on every shard, the
// sharded deployment's merged snapshot stays byte-identical to the
// canonicalized serial snapshot — flow buckets, stamps, counts and the
// admission ledger are all replica-local (MergeDerived), zeroed on merge,
// and the controller merges flows by key instead.
func TestFlowShardedCanonicalEquivalence(t *testing.T) {
	opts := Options{Slots: 2, Size: 64, Stages: 2, FlowTable: true, FlowTableSize: 64}
	for _, n := range []int{1, 2, 4} {
		lib := Build(opts)
		rt, err := NewRuntime(lib)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewShardedRuntime(lib, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sr.Close)
		// A dense frequency track on stage 0 keeps the canonicalization
		// recompute path busy alongside the flow table on stage 1.
		if _, err := rt.BindFreqDst(0, 0, AllIPv4(), 0, 0, 64, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.BindFreqDst(0, 0, AllIPv4(), 0, 0, 64, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.BindFlowDst(1, 1, AllIPv4(), 0, 10, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.BindFlowDst(1, 1, AllIPv4(), 0, 10, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		// Tiny table + TTL 1 epoch + churning keys: constant evictions.
		rng := rand.New(rand.NewSource(int64(40 + n)))
		for i := 0; i < 6000; i++ {
			src := packet.ParseIP4(192, 168, 0, byte(rng.Intn(8)))
			dst := packet.IP4(uint32(rng.Intn(256)) + 1)
			frame := packet.NewUDPFrame(src, dst, 999, 80, 10).Serialize()
			ts := uint64(i) * 300
			rt.Sharded().ProcessFrame(ts, 1, frame)
			sr.Sharded().ProcessFrame(ts, 1, frame)
		}

		sst := mustRead(t, rt, FlowLedger, 1)
		mst := mustRead(t, sr, FlowLedger, 1)
		if sst.Evicted == 0 || mst.Evicted == 0 {
			t.Fatalf("n=%d: test vacuous: no evictions in flight (serial %d, sharded %d)",
				n, sst.Evicted, mst.Evicted)
		}

		serial := rt.Switch().Snapshot()
		rt.Library().CanonicalizeSnapshot(serial, sr.FreqSlots())
		merged := sr.MergedSnapshot()
		for name, want := range serial.Registers {
			if got := merged.Registers[name]; !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d: register %q diverges\nmerged: %v\nserial: %v", n, name, got, want)
			}
		}
		if !reflect.DeepEqual(merged.Entries, serial.Entries) {
			t.Fatalf("n=%d: merged table entries diverge from serial", n)
		}

		// The controller-side flow merge: every key is owned by one shard, so
		// merged per-key counts at n=1 equal the serial table's exactly.
		if n == 1 {
			mf, sf := mustRead(t, sr, Flows, 1).Entries, mustRead(t, rt, Flows, 1).Entries
			if !reflect.DeepEqual(mf, sf) {
				t.Fatalf("single-shard merged flows diverge from serial")
			}
		}
	}
}

// TestFlowResetSlot: resetting the slot clears buckets, ledger and moments so
// the slot can be rebound.
func TestFlowResetSlot(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 64})
	if _, err := rt.BindFlowSrc(0, 0, AllIPv4(), 0, 20, 4, 0, 0); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	for i := 0; i < 500; i++ {
		sw.ProcessFrame(uint64(i)*100, 1,
			packet.NewUDPFrame(packet.IP4(uint32(i%40)+1), 2, 5, 80, 10).Serialize())
	}
	if len(mustRead(t, rt, Flows, 0).Entries) == 0 {
		t.Fatal("no flows tracked before reset")
	}
	if err := rt.ResetSlot(0); err != nil {
		t.Fatal(err)
	}
	if entries := mustRead(t, rt, Flows, 0).Entries; len(entries) != 0 {
		t.Fatalf("flows survive reset: %v", entries)
	}
	st := mustRead(t, rt, FlowLedger, 0)
	if st.Admitted != 0 || st.Evicted != 0 || st.Rejected != 0 || st.Shed != 0 || st.Occupied != 0 {
		t.Fatalf("ledger survives reset: %+v", st)
	}
}

// TestFlowBindValidation pins the option and parameter contracts.
func TestFlowBindValidation(t *testing.T) {
	plain := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1})
	if _, err := plain.BindFlowDst(0, 0, AllIPv4(), 0, 20, 4, 0, 0); err == nil {
		t.Fatal("flow binding accepted without Options.FlowTable")
	}
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 64})
	for name, call := range map[string]func() error{
		"ttl 0": func() error {
			_, err := rt.BindFlowDst(0, 0, AllIPv4(), 0, 20, 0, 0, 0)
			return err
		},
		"epoch shift 64": func() error {
			_, err := rt.BindFlowDst(0, 0, AllIPv4(), 0, 64, 4, 0, 0)
			return err
		},
		"key shift 33": func() error {
			_, err := rt.BindFlowSrc(0, 0, AllIPv4(), 33, 20, 4, 0, 0)
			return err
		},
		"sample shift 33": func() error {
			_, err := rt.BindFlowPair(0, 0, AllIPv4(), 20, 4, 33, 0)
			return err
		},
		"bad slot": func() error {
			_, err := rt.BindFlowDst(0, 9, AllIPv4(), 0, 20, 4, 0, 0)
			return err
		},
	} {
		if err := call(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	mustPanic := func(name string, opts Options) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		Build(opts)
	}
	mustPanic("strict+flowtable", Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, Strict: true})
	mustPanic("non-pow2 table", Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 48})
}

// TestFlowPairKey: the pair binding folds src<<32|dst into one key, so two
// sources hitting one destination are distinct flows.
func TestFlowPairKey(t *testing.T) {
	rt := mustRuntime(t, Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 256})
	if _, err := rt.BindFlowPair(0, 0, AllIPv4(), 30, 8, 0, 0); err != nil {
		t.Fatal(err)
	}
	sw := rt.Sharded()
	a, b := packet.ParseIP4(1, 0, 0, 1), packet.ParseIP4(1, 0, 0, 2)
	dst := packet.ParseIP4(10, 0, 0, 1)
	for i := 0; i < 10; i++ {
		sw.ProcessFrame(uint64(i), 1, packet.NewUDPFrame(a, dst, 5, 80, 10).Serialize())
	}
	sw.ProcessFrame(11, 1, packet.NewUDPFrame(b, dst, 5, 80, 10).Serialize())
	entries := mustRead(t, rt, Flows, 0).Entries
	if len(entries) != 2 {
		t.Fatalf("tracked %d flows, want 2 (%v)", len(entries), entries)
	}
	wantHot := uint64(a)<<32 | uint64(dst)
	if entries[0].Key != wantHot || entries[0].Count != 10 {
		t.Fatalf("hot pair = %+v, want key %d count 10", entries[0], wantHot)
	}
}
