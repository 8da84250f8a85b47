package controller

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"stat4/internal/core"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
)

// TestMergeSharedEqualsSingleSwitch splits one traffic stream across two
// switches tracking the same per-destination distribution; the merged
// counters and moments must equal a third switch that saw everything.
func TestMergeSharedEqualsSingleSwitch(t *testing.T) {
	mk := func() *stat4p4.Runtime {
		rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.BindFreqDst(0, 0, stat4p4.AllIPv4(), 0, 0, 64, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b, all := mk(), mk(), mk()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		f := packet.NewUDPFrame(1, packet.IP4(rng.Intn(64)), 5, 80, 10)
		if rng.Intn(2) == 0 {
			a.Sharded().ProcessPacket(uint64(i), 1, f)
		} else {
			b.Sharded().ProcessPacket(uint64(i), 1, f)
		}
		all.Sharded().ProcessPacket(uint64(i), 1, f)
	}

	merged, m, err := PullShared(0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := stat4p4.Read(all, stat4p4.Counters, 0)
	for v := range want {
		if merged[v] != want[v] {
			t.Fatalf("merged[%d] = %d, single switch %d", v, merged[v], want[v])
		}
	}
	wm, _ := stat4p4.Read(all, stat4p4.Moments, 0)
	if m.N != wm.N || m.Sum != wm.Xsum || m.Sumsq != wm.Xsumsq {
		t.Fatalf("merged moments (%d,%d,%d), single switch (%d,%d,%d)",
			m.N, m.Sum, m.Sumsq, wm.N, wm.Xsum, wm.Xsumsq)
	}
	// Derived measures work on the merged result.
	if m.Variance() == 0 && m.N > 1 {
		t.Log("note: zero variance on random counters is unlikely")
	}
}

// TestMergeDisjointEqualsConcatenation: moments of disjoint populations add;
// the merged variance equals a from-scratch computation over the
// concatenated samples.
func TestMergeDisjointEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var refAll core.Moments
	var parts []stat4p4.MomentsSnapshot
	for s := 0; s < 3; s++ {
		var ref core.Moments
		for i := 0; i < 100; i++ {
			x := uint64(rng.Intn(1000))
			ref.AddSample(x)
			refAll.AddSample(x)
		}
		parts = append(parts, stat4p4.MomentsSnapshot{N: ref.N, Xsum: ref.Sum, Xsumsq: ref.Sumsq})
	}
	merged := MergeDisjoint(parts...)
	if merged.N != refAll.N || merged.Sum != refAll.Sum || merged.Sumsq != refAll.Sumsq {
		t.Fatalf("merged (%d,%d,%d), want (%d,%d,%d)",
			merged.N, merged.Sum, merged.Sumsq, refAll.N, refAll.Sum, refAll.Sumsq)
	}
	if merged.Variance() != refAll.Variance() || merged.StdDev() != refAll.StdDev() {
		t.Fatal("derived measures diverge after disjoint merge")
	}
}

// TestMergeSharedIsNotMomentAddition documents why shared populations need
// counter merging: adding the moments directly gives the wrong Xsumsq.
func TestMergeSharedIsNotMomentAddition(t *testing.T) {
	// Switch A and B both see value 0 twice.
	a := []uint64{2, 0}
	b := []uint64{2, 0}
	_, m, err := MergeShared(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sumsq != 16 { // (2+2)²
		t.Fatalf("merged Xsumsq = %d, want 16", m.Sumsq)
	}
	naive := MergeDisjoint(
		stat4p4.MomentsSnapshot{N: 1, Xsum: 2, Xsumsq: 4},
		stat4p4.MomentsSnapshot{N: 1, Xsum: 2, Xsumsq: 4},
	)
	if naive.Sumsq == m.Sumsq {
		t.Fatal("moment addition accidentally matched counter merging; test is vacuous")
	}
}

func TestMergeSharedShapeErrors(t *testing.T) {
	if _, _, err := MergeShared(); !errors.Is(err, ErrShape) {
		t.Fatalf("empty merge: %v", err)
	}
	if _, _, err := MergeShared([]uint64{1}, []uint64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("mismatched merge: %v", err)
	}
}

// TestAggregatorDedupsDuplicateReports is the retransmission regression: the
// same (switch, epoch) report delivered twice must be folded in exactly once.
func TestAggregatorDedupsDuplicateReports(t *testing.T) {
	a := NewAggregator(4)
	r := Report{Switch: "s1", Epoch: 1, Counters: []uint64{1, 2, 0, 3}}
	if ok, err := a.Add(r); err != nil || !ok {
		t.Fatalf("first add: ok=%v err=%v", ok, err)
	}
	if ok, err := a.Add(r); err != nil || ok {
		t.Fatalf("duplicate add: ok=%v err=%v, want rejected", ok, err)
	}
	if a.Accepted() != 1 || a.Duplicates() != 1 {
		t.Fatalf("accepted=%d dupes=%d", a.Accepted(), a.Duplicates())
	}
	merged, m := a.Merged()
	want := []uint64{1, 2, 0, 3}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merged = %v, want %v", merged, want)
		}
	}
	if m.N != 3 || m.Sum != 6 || m.Sumsq != 1+4+9 {
		t.Fatalf("moments = %+v", m)
	}

	// Same switch, new epoch: accepted. Different switch, same epoch: accepted.
	if ok, _ := a.Add(Report{Switch: "s1", Epoch: 2, Counters: []uint64{1, 0, 0, 0}}); !ok {
		t.Fatal("new epoch rejected")
	}
	if ok, _ := a.Add(Report{Switch: "s2", Epoch: 1, Counters: []uint64{0, 1, 0, 0}}); !ok {
		t.Fatal("other switch rejected")
	}
}

// TestAggregatorOrderIndependent is the out-of-order regression: any arrival
// permutation of the same report set — epochs interleaved across switches,
// duplicates sprinkled in — yields identical merged state.
func TestAggregatorOrderIndependent(t *testing.T) {
	reports := []Report{
		{Switch: "a", Epoch: 3, Counters: []uint64{5, 0, 1}},
		{Switch: "b", Epoch: 1, Counters: []uint64{0, 2, 2}},
		{Switch: "a", Epoch: 1, Counters: []uint64{1, 1, 0}},
		{Switch: "b", Epoch: 3, Counters: []uint64{2, 0, 7}},
		{Switch: "a", Epoch: 2, Counters: []uint64{0, 0, 4}},
	}
	run := func(order []int, withDupes bool) ([]uint64, core.Moments) {
		t.Helper()
		a := NewAggregator(3)
		for _, i := range order {
			if _, err := a.Add(reports[i]); err != nil {
				t.Fatal(err)
			}
			if withDupes {
				if ok, _ := a.Add(reports[i]); ok {
					t.Fatal("duplicate accepted")
				}
			}
		}
		merged, m := a.Merged()
		return merged, m
	}
	wantCells, wantM := run([]int{0, 1, 2, 3, 4}, false)
	for _, order := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}} {
		for _, withDupes := range []bool{false, true} {
			cells, m := run(order, withDupes)
			if !reflect.DeepEqual(cells, wantCells) || m != wantM {
				t.Fatalf("order %v dupes=%v: merged %v %+v, want %v %+v",
					order, withDupes, cells, m, wantCells, wantM)
			}
		}
	}
}

// TestAggregatorRejectsBadShape covers the shape guard.
func TestAggregatorRejectsBadShape(t *testing.T) {
	a := NewAggregator(3)
	if _, err := a.Add(Report{Switch: "s", Epoch: 1, Counters: []uint64{1}}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if a.Accepted() != 0 {
		t.Fatal("bad-shape report counted as accepted")
	}
}
