package stat4p4

import (
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/core"
	"stat4/internal/packet"
)

// shardedPair builds a one-shard Runtime and an n-shard one over the same
// library and applies the same bindings to both: packets-per-/24-host
// on stage 0, frame sizes on stage 1.
func shardedPair(t *testing.T, opts Options, n int) (*Runtime, *Runtime) {
	t.Helper()
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

	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	if _, err := rt.Bind(Binding{Kind: "freq-dst", Match: AllIPv4(),
		Base: dstBase, Size: 64, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Bind(Binding{Kind: "freq-dst", Match: AllIPv4(),
		Base: dstBase, Size: 64, PA: 1, PB: 1}); err != nil {
		t.Fatal(err)
	}
	if opts.Stages > 1 {
		// Wire length = 14 + 20 + 8 + payload, payloads below 22 bytes.
		if _, err := rt.Bind(Binding{Kind: "freq-len", Stage: 1, Slot: 1, Match: AllIPv4(),
			Base: 42, Size: 32, PA: 1, PB: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Bind(Binding{Kind: "freq-len", Stage: 1, Slot: 1, Match: AllIPv4(),
			Base: 42, Size: 32, PA: 1, PB: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return rt, sr
}

// driveBoth replays the same pseudo-random UDP stream through the serial
// switch and the sharded dispatcher.
func driveBoth(rt *Runtime, sr *Runtime, seed int64, packets int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < packets; i++ {
		src := packet.ParseIP4(192, 168, byte(rng.Intn(4)), byte(rng.Intn(32)))
		dst := packet.ParseIP4(10, 0, 0, byte(rng.Intn(64)))
		sport := uint16(1024 + rng.Intn(64))
		frame := packet.NewUDPFrame(src, dst, sport, 80, rng.Intn(22)).Serialize()
		ts := uint64(i)
		rt.Sharded().ProcessFrame(ts, 1, frame)
		sr.Sharded().ProcessFrame(ts, 1, frame)
	}
}

// TestShardedCanonicalEquivalence is the tentpole theorem at the stat4p4
// layer: after the same packet stream, the sharded deployment's merged
// snapshot is byte-identical to the canonicalised snapshot of one serial
// switch — registers and table entries both — across the default build, the
// strict (mul-free) build, and the deployable 32-bit cell width.
func TestShardedCanonicalEquivalence(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"default", Options{Slots: 2, Size: 64, Stages: 2}},
		{"strict", Options{Slots: 2, Size: 64, Stages: 2, Strict: true, StrictCapShift: 4}},
		{"cell32", Options{Slots: 2, Size: 64, Stages: 2, CellWidth: 32}},
		{"novariance", Options{Slots: 2, Size: 64, Stages: 2, NoVariance: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 4} {
				rt, sr := shardedPair(t, tc.opts, n)
				driveBoth(rt, sr, int64(100+n), 3000)

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
			}
		})
	}
}

// TestCanonicalizeMatchesDataPlane pins the exactness claim canonicalisation
// rests on: every recomputed scalar — N, Σx, Σx², variance, σ — equals the
// raw register the serial data plane itself wrote, because each is a pure
// function of the final counters under the emitted arithmetic. Markers are
// exempt (the serial marker may lag its equilibrium by design); the
// canonical marker must still tile the distribution's mass.
func TestCanonicalizeMatchesDataPlane(t *testing.T) {
	for _, opts := range []Options{
		{Slots: 2, Size: 64, Stages: 2},
		{Slots: 2, Size: 64, Stages: 2, Strict: true, StrictCapShift: 4},
		{Slots: 2, Size: 64, Stages: 2, CellWidth: 32},
	} {
		rt, sr := shardedPair(t, opts, 2)
		driveBoth(rt, sr, 7, 2000)

		raw := rt.Switch().Snapshot()
		canon := rt.Switch().Snapshot()
		rt.Library().CanonicalizeSnapshot(canon, sr.FreqSlots())

		for _, sb := range sr.FreqSlots() {
			for _, reg := range []string{RegN, RegXsum, RegXsumsq, RegVar, RegSD} {
				if got, want := canon.Registers[reg][sb.Slot], raw.Registers[reg][sb.Slot]; got != want {
					t.Errorf("strict=%v width=%v slot %d: canonical %s = %d, data plane wrote %d",
						opts.Strict, opts.CellWidth, sb.Slot, reg, got, want)
				}
			}
			counters := raw.Registers[RegCounters]
			base := sb.Slot * opts.Size
			var total uint64
			for _, f := range counters[base : base+opts.Size] {
				total += f
			}
			if canon.Registers[RegMedInit][sb.Slot] == 1 {
				low := canon.Registers[RegLow][sb.Slot]
				high := canon.Registers[RegHigh][sb.Slot]
				idx := canon.Registers[RegMed][sb.Slot]
				if low+counters[base+int(idx)]+high != total {
					t.Errorf("slot %d: canonical marker does not tile mass: %d+%d+%d != %d",
						sb.Slot, low, counters[base+int(idx)], high, total)
				}
			} else if total != 0 {
				t.Errorf("slot %d: mass %d but canonical marker unseeded", sb.Slot, total)
			}
		}
	}
}

// TestMergedMomentsMatchesSerial reads the merged measures through the
// Moments view and checks them against the serial switch's raw
// registers (scalars exact) and the re-derived marker.
func TestMergedMomentsMatchesSerial(t *testing.T) {
	rt, sr := shardedPair(t, Options{Slots: 2, Size: 64, Stages: 2}, 4)
	driveBoth(rt, sr, 21, 2500)

	for _, sb := range sr.FreqSlots() {
		got, want := mustRead(t, sr, Moments, sb.Slot), mustRead(t, rt, Moments, sb.Slot)
		if got.N != want.N || got.Xsum != want.Xsum || got.Xsumsq != want.Xsumsq ||
			got.Var != want.Var || got.SD != want.SD {
			t.Fatalf("slot %d: merged scalars %+v, serial %+v", sb.Slot, got, want)
		}
		counters := mustRead(t, rt, Counters, sb.Slot)
		if idx, _, _, ok := core.RederiveMarker(counters, sb.PA, sb.PB); ok && got.Median != idx {
			t.Fatalf("slot %d: merged median %d, re-derived serial %d", sb.Slot, got.Median, idx)
		}
		// Per-shard movement counts sum to the merged total.
		var moves uint64
		for i := 0; i < sr.NumShards(); i++ {
			moves += mustReadShard(t, sr, Moments, i, sb.Slot).MedianMoves
		}
		if got.MedianMoves != moves {
			t.Fatalf("slot %d: merged moves %d, shard sum %d", sb.Slot, got.MedianMoves, moves)
		}
	}

	// Merged counters must equal the serial distribution cell for cell.
	mc, sc := mustRead(t, sr, Counters, 0), mustRead(t, rt, Counters, 0)
	if !reflect.DeepEqual(mc, sc) {
		t.Fatalf("merged counters diverge from serial:\nmerged: %v\nserial: %v", mc, sc)
	}
}

// TestShardedRuntimeFanOut covers the control-plane contract: one logical
// operation yields one entry ID valid on every shard, errors surface, and
// ResetSlot forgets the slot's recorded binding.
func TestShardedRuntimeFanOut(t *testing.T) {
	lib := Build(Options{Slots: 2, Size: 64, Stages: 1})
	sr, err := NewShardedRuntime(lib, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	if got := sr.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d", got)
	}
	id, err := sr.Bind(Binding{Kind: "freq-dst", Match: AllIPv4(),
		Base: uint64(packet.ParseIP4(10, 0, 0, 0)), Size: 64, PA: 1, PB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if slots := sr.FreqSlots(); len(slots) != 1 || slots[0] != (SlotBinding{Slot: 0, PA: 1, PB: 1}) {
		t.Fatalf("FreqSlots = %v", slots)
	}
	if _, err := sr.Bind(Binding{Kind: "freq-dst", Slot: 99, Match: AllIPv4(),
		Size: 64, PA: 1, PB: 1}); err == nil {
		t.Fatal("bad slot accepted")
	}
	if err := sr.Unbind(0, id); err != nil {
		t.Fatal(err)
	}
	rid, err := sr.AddRoute(packet.Prefix{Addr: packet.ParseIP4(10, 0, 0, 0), Len: 8}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.DelRoute(rid); err != nil {
		t.Fatal(err)
	}
	if err := sr.ResetSlot(0); err != nil {
		t.Fatal(err)
	}
	if slots := sr.FreqSlots(); len(slots) != 0 {
		t.Fatalf("FreqSlots after reset = %v", slots)
	}
}
