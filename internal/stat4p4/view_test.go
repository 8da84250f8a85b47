package stat4p4

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/packet"
)

// mustRead is Read with any error fatal.
func mustRead[T any](t testing.TB, rt *Runtime, v *View[T], slot int) T {
	t.Helper()
	got, err := Read(rt, v, slot)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// mustReadShard is ReadShard with any error fatal.
func mustReadShard[T any](t testing.TB, rt *Runtime, v *View[T], shard, slot int) T {
	t.Helper()
	got, err := ReadShard(rt, v, shard, slot)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// viewsOpts carries every view's feature: a heavy-hitter table and a flow
// table roomy enough that the traces below never reject.
var viewsOpts = Options{Slots: 4, Size: 64, Stages: 4, Entropy: true,
	HeavyHitter: true, HHTableSize: 256, FlowTable: true, FlowTableSize: 512}

// viewsPair builds a serial runtime and an n-shard one over viewsOpts, binds
// slot i on stage i of both — dense frequency, entropy, heavy hitters with
// every packet promoted, flows that never expire — and drives the same
// trace through both. Key k is the frame src 192.168.0.k → dst 10.0.0.k on
// fixed ports, so each key's packets land on one shard and every merge is
// exact.
func viewsPair(t *testing.T, n int) (*Runtime, *Runtime) {
	t.Helper()
	lib := Build(viewsOpts)
	rt, err := NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewShardedRuntime(lib, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sr.Close)
	base := uint64(packet.ParseIP4(10, 0, 0, 0))
	for _, b := range []Binding{
		{Kind: "freq-dst", Stage: 0, Slot: 0, Base: base, Size: 64, PA: 1, PB: 1},
		{Kind: "entropy-dst", Stage: 1, Slot: 1, Base: base, Size: 64},
		{Kind: "hh-src", Stage: 2, Slot: 2},
		{Kind: "flow-dst", Stage: 3, Slot: 3, EpochShift: 63, TTL: 1},
	} {
		b.Match = AllIPv4()
		for _, tgt := range []*Runtime{rt, sr} {
			if _, err := tgt.Bind(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(7 + n)))
	for i := 0; i < 5000; i++ {
		k := byte(rng.Intn(1 + rng.Intn(40)))
		frame := packet.NewUDPFrame(packet.ParseIP4(192, 168, 0, k), packet.ParseIP4(10, 0, 0, k), 1000, 80, 0).Serialize()
		rt.Sharded().ProcessFrame(uint64(i), 1, frame)
		sr.Sharded().ProcessFrame(uint64(i), 1, frame)
	}
	return rt, sr
}

// TestViewsMergeLikeSerial: on traces where the merge is exact, every row of
// the view table reads the same from the merged shards as from one serial
// switch, at 1, 2 and 4 shards.
func TestViewsMergeLikeSerial(t *testing.T) {
	rows := map[string]func(t *testing.T, rt *Runtime, sr *Runtime, n int){
		"moments": func(t *testing.T, rt *Runtime, sr *Runtime, _ int) {
			for _, slot := range []int{0, 3} { // dense and flow slots
				s, m := mustRead(t, rt, Moments, slot), mustRead(t, sr, Moments, slot)
				if s.N == 0 || m.N != s.N || m.Xsum != s.Xsum || m.Xsumsq != s.Xsumsq || m.Var != s.Var || m.SD != s.SD {
					t.Fatalf("slot %d: merged %+v, serial %+v", slot, m, s)
				}
			}
		},
		"counters": func(t *testing.T, rt *Runtime, sr *Runtime, _ int) {
			if s, m := mustRead(t, rt, Counters, 0), mustRead(t, sr, Counters, 0); !reflect.DeepEqual(m, s) {
				t.Fatalf("merged %v, serial %v", m, s)
			}
		},
		"entropy": func(t *testing.T, rt *Runtime, sr *Runtime, _ int) {
			if s, m := mustRead(t, rt, Entropy, 1), mustRead(t, sr, Entropy, 1); s.Total == 0 || m != s {
				t.Fatalf("merged %+v, serial %+v", m, s)
			}
		},
		"heavyhitters": func(t *testing.T, rt *Runtime, sr *Runtime, _ int) {
			s, m := mustRead(t, rt, HeavyHitters, 2), mustRead(t, sr, HeavyHitters, 2)
			if len(s.Entries) == 0 || s.Rejected != 0 {
				t.Fatalf("trace not exact: serial table %+v", s)
			}
			if !reflect.DeepEqual(m, s) {
				t.Fatalf("merged %+v, serial %+v", m, s)
			}
		},
		"flows": func(t *testing.T, rt *Runtime, sr *Runtime, n int) {
			s, m := mustRead(t, rt, Flows, 3), mustRead(t, sr, Flows, 3)
			if len(s.Entries) == 0 || s.Rejected != 0 {
				t.Fatalf("trace not exact: serial ledger %+v", s.FlowStats)
			}
			s.Capacity *= uint64(n) // every shard brings its own buckets
			if !reflect.DeepEqual(m, s) {
				t.Fatalf("merged %+v, serial %+v", m, s)
			}
			if l := mustRead(t, sr, FlowLedger, 3); l != m.FlowStats {
				t.Fatalf("FlowLedger %+v, Flows ledger %+v", l, m.FlowStats)
			}
		},
	}
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rt, sr := viewsPair(t, n)
			for _, v := range Views() {
				check, ok := rows[v.Name()]
				if !ok {
					t.Fatalf("view %q has no merge check", v.Name())
				}
				t.Run(v.Name(), func(t *testing.T) { check(t, rt, sr, n) })
			}
		})
	}
}

// TestViewTable pins the table's contracts: every binding kind is read back
// through exactly one row, which needs the kind's own feature; a program
// built without a row's feature answers with the same error Lower gives; and
// a slot out of range is ErrBadSlot on both runtimes.
func TestViewTable(t *testing.T) {
	runtimes := func(opts Options) []*Runtime {
		rt, err := NewRuntime(Build(opts))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewShardedRuntime(Build(opts), 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sr.Close)
		return []*Runtime{rt, sr}
	}
	plain, full := runtimes(Options{Slots: 2, Size: 64, Stages: 1}), runtimes(viewsOpts)

	// needs is each row's feature, as the kinds read back through it say.
	needs := map[AnyView]*feature{Counters: nil, FlowLedger: featFlow}
	for i := range kinds {
		k := &kinds[i]
		found := 0
		for _, v := range Views() {
			if v == k.view {
				found++
			}
		}
		if f, seen := needs[k.view]; found != 1 || seen && f != k.needs {
			t.Errorf("kind %s: read back through %d rows, or a row shared by kinds of another feature", k.name, found)
		}
		needs[k.view] = k.needs
	}
	for _, v := range append(Views(), FlowLedger) {
		f, ok := needs[v]
		if !ok {
			t.Fatalf("row %s: no kind reads back through it", v.Name())
		}
		for _, tgt := range append(plain, full...) {
			want := f.check(&tgt.Library().Opts) // the missing-option error, or nil
			_, err := v.Body(tgt, 0, 0)
			if (err == nil) != (want == nil) || want != nil && err.Error() != want.Error() {
				t.Errorf("%T %s slot 0: %v, want %v", tgt, v.Name(), err, want)
			}
			for _, slot := range []int{-1, tgt.Library().Opts.Slots} {
				if _, err := v.Body(tgt, slot, 0); want == nil && !errors.Is(err, ErrBadSlot) {
					t.Errorf("%T %s slot %d: %v, want ErrBadSlot", tgt, v.Name(), slot, err)
				}
			}
		}
	}
}

// TestFlowMergedMoments: a flow kind counts into its flow table, never the
// counter array, so a flow slot's merged moments come from the key-merged
// flow counts — and equal the serial switch's. 4 shards, 20 000 frames over
// 40 source keys, nothing expiring.
func TestFlowMergedMoments(t *testing.T) {
	lib := Build(Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 256})
	rt, err := NewRuntime(lib)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewShardedRuntime(lib, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	for _, tgt := range []*Runtime{rt, sr} {
		if _, err := BindTrack(tgt, "flow", TrackParams{EpochShift: 63, TTL: 1}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20000; i++ {
		src := packet.IP4(rng.Intn(40) + 1)
		if i%5 == 0 {
			src = 40
		}
		frame := packet.NewUDPFrame(src, packet.ParseIP4(10, 0, 0, 1), 5, 80, 10).Serialize()
		rt.Sharded().ProcessFrame(uint64(i), 1, frame)
		sr.Sharded().ProcessFrame(uint64(i), 1, frame)
	}
	s, m := mustRead(t, rt, Moments, 0), mustRead(t, sr, Moments, 0)
	if s.N != 40 || s.Xsum != 20000 || s.SD == 0 {
		t.Fatalf("test vacuous: serial moments %+v", s)
	}
	if m.N != s.N || m.Xsum != s.Xsum || m.Xsumsq != s.Xsumsq || m.Var != s.Var || m.SD != s.SD {
		t.Fatalf("merged flow-slot moments %+v, serial %+v", m, s)
	}
}

// TestRebindReplacesSlotRecord: Bind records what it puts on a slot, so a
// slot rebound from a frequency kind to a flow kind stops being listed — and
// canonicalised — as a frequency slot.
func TestRebindReplacesSlotRecord(t *testing.T) {
	sr, err := NewShardedRuntime(Build(Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 64}), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	id, err := sr.BindFreqDst(0, 0, AllIPv4(), 0, uint64(packet.ParseIP4(10, 0, 0, 0)), 64, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sr.Sharded().ProcessFrame(uint64(i), 1, packet.NewUDPFrame(1, packet.ParseIP4(10, 0, 0, byte(i%8)), 5, 80, 10).Serialize())
	}
	if len(sr.FreqSlots()) != 1 {
		t.Fatalf("freq binding not recorded: %v", sr.FreqSlots())
	}
	if err := sr.Unbind(0, id); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.BindFlowDst(0, 0, AllIPv4(), 0, 63, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if slots := sr.FreqSlots(); len(slots) != 0 {
		t.Fatalf("FreqSlots after rebinding to a flow kind = %v", slots)
	}
}

// readRule checks Read's rule on one view and slot: on one shard it is the
// shard's own read, on more the view's merge of every shard's ReadShard.
func readRule[T any](t *testing.T, rt *Runtime, v *View[T], slot int) {
	t.Helper()
	shards := make([]T, rt.NumShards())
	for i := range shards {
		shards[i] = mustReadShard(t, rt, v, i, slot)
	}
	want := shards[0]
	if len(shards) > 1 {
		want = v.merge(rt, slot, shards)
	}
	if got := mustRead(t, rt, v, slot); !reflect.DeepEqual(got, want) {
		t.Fatalf("slot %d: Read %+v, want %+v", slot, got, want)
	}
}

// TestReadOneShardIsRaw pins Read's rule for every row of the view table at
// one and two shards. At one shard a slot's moments are its raw registers —
// the data plane's own marker, not a re-derived one.
func TestReadOneShardIsRaw(t *testing.T) {
	rows := map[string]func(t *testing.T, rt *Runtime){
		"moments": func(t *testing.T, rt *Runtime) {
			readRule(t, rt, Moments, 0)
			readRule(t, rt, Moments, 3)
		},
		"counters":     func(t *testing.T, rt *Runtime) { readRule(t, rt, Counters, 0) },
		"entropy":      func(t *testing.T, rt *Runtime) { readRule(t, rt, Entropy, 1) },
		"heavyhitters": func(t *testing.T, rt *Runtime) { readRule(t, rt, HeavyHitters, 2) },
		"flows": func(t *testing.T, rt *Runtime) {
			readRule(t, rt, Flows, 3)
			readRule(t, rt, FlowLedger, 3)
		},
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			_, rt := viewsPair(t, n)
			for _, v := range Views() {
				check, ok := rows[v.Name()]
				if !ok {
					t.Fatalf("view %q has no read-rule check", v.Name())
				}
				t.Run(v.Name(), func(t *testing.T) { check(t, rt) })
			}
			if n != 1 {
				return
			}
			m, raw := mustRead(t, rt, Moments, 0), make(map[string]uint64)
			for _, name := range []string{RegN, RegXsum, RegXsumsq, RegVar, RegSD, RegMed, RegMedMoves} {
				reg, err := rt.Switch().Register(name)
				if err != nil {
					t.Fatal(err)
				}
				raw[name], _ = reg.Read(0)
			}
			if raw[RegN] == 0 || m != (MomentsSnapshot{raw[RegN], raw[RegXsum], raw[RegXsumsq], raw[RegVar], raw[RegSD], raw[RegMed], raw[RegMedMoves]}) {
				t.Fatalf("one-shard moments %+v, registers %v", m, raw)
			}
		})
	}
}
