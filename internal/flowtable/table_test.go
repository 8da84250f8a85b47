package flowtable

import (
	"math/rand"
	"sort"
	"testing"
)

// checkLedger asserts the two documented ledger invariants.
func checkLedger(t *testing.T, tab *Table) {
	t.Helper()
	st := tab.Stats()
	if st.Hits+st.Admitted+st.Rejected+st.Shed != st.Offered {
		t.Fatalf("ledger leak: hits %d + admitted %d + rejected %d + shed %d != offered %d",
			st.Hits, st.Admitted, st.Rejected, st.Shed, st.Offered)
	}
	if st.Admitted != uint64(tab.Occupied())+st.Evicted {
		t.Fatalf("conservation: admitted %d != occupied %d + evicted %d",
			st.Admitted, tab.Occupied(), st.Evicted)
	}
	// Occupied must agree with a full recount.
	n := 0
	tab.Each(func(Entry) { n++ })
	if n != tab.Occupied() {
		t.Fatalf("occupied %d != recount %d", tab.Occupied(), n)
	}
}

func TestTouchAdmitHitLookup(t *testing.T) {
	tab := New(Config{Buckets: 64, EpochShift: 20, TTL: 4})
	idx, out := tab.Touch(42, 0)
	if out != Admitted || idx < 0 {
		t.Fatalf("first touch: got (%d, %v), want admission", idx, out)
	}
	for i := 0; i < 9; i++ {
		if _, out := tab.Touch(42, uint64(i)); out != Hit {
			t.Fatalf("touch %d: got %v, want hit", i, out)
		}
	}
	if c, ok := tab.Lookup(42, 9); !ok || c != 10 {
		t.Fatalf("lookup: got (%d, %v), want (10, true)", c, ok)
	}
	if _, ok := tab.Lookup(7, 9); ok {
		t.Fatal("lookup of never-admitted key succeeded")
	}
	if tab.Occupied() != 1 {
		t.Fatalf("occupied = %d, want 1", tab.Occupied())
	}
	checkLedger(t, tab)
}

func TestEpochExpiryAndEviction(t *testing.T) {
	// 2^10 ns epochs, TTL 2: an entry stamped in epoch e dies at e+2.
	tab := New(Config{Buckets: 8, EpochShift: 10, TTL: 2})
	tab.Touch(1, 0) // epoch 0
	if _, ok := tab.Lookup(1, 1<<10); !ok {
		t.Fatal("entry should be live one epoch after touch")
	}
	if _, ok := tab.Lookup(1, 2<<10); ok {
		t.Fatal("entry should be expired two epochs after touch")
	}
	// The expired bucket is dead capacity until a claim reclaims it.
	if tab.Occupied() != 1 {
		t.Fatalf("occupied = %d before reclamation, want 1", tab.Occupied())
	}
	// The key itself re-admits through eviction of its own stale entry,
	// restarting the count.
	if _, out := tab.Touch(1, 2<<10); out != Evicted {
		t.Fatalf("re-touch of expired key: got %v, want evicted", out)
	}
	if c, _ := tab.Lookup(1, 2<<10); c != 1 {
		t.Fatalf("count after expiry restart = %d, want 1", c)
	}
	st := tab.Stats()
	if st.Evicted != 1 || st.Admitted != 2 {
		t.Fatalf("ledger after eviction: %+v", st)
	}
	checkLedger(t, tab)
}

func TestRejectionWhenCandidatesLive(t *testing.T) {
	tab := New(Config{Buckets: 4, EpochShift: 30, TTL: 8})
	// Find a key and two occupants of its candidate buckets.
	victim := uint64(1)
	l, r := tab.probes(victim)
	var occL, occR uint64
	for k := uint64(2); occL == 0 || occR == 0; k++ {
		kl, kr := tab.probes(k)
		if occL == 0 && (kl == l || kr == l) {
			// claim order prefers empty-left, so force the left claim by
			// filling left first
			occL = k
			continue
		}
		if occR == 0 && (kl == r || kr == r) && k != occL {
			occR = k
		}
	}
	tab.Touch(occL, 0)
	tab.Touch(occR, 0)
	// Both of victim's candidates may not be taken if occupants claimed
	// their other bucket; place directly when needed.
	if tab.stamps[l] == 0 {
		tab.keys[l], tab.stamps[l], tab.counts[l] = 99, 1, 1
		tab.occupied++
		tab.stats.Offered++
		tab.stats.Admitted++
	}
	if tab.stamps[r] == 0 {
		tab.keys[r], tab.stamps[r], tab.counts[r] = 98, 1, 1
		tab.occupied++
		tab.stats.Offered++
		tab.stats.Admitted++
	}
	if _, out := tab.Touch(victim, 0); out != Rejected {
		t.Fatalf("touch with both candidates live: got %v, want rejected", out)
	}
	checkLedger(t, tab)
}

func TestSamplingFrontEnd(t *testing.T) {
	// 2^-6 coin: one-packet mice are mostly shed, a persistent flow is
	// admitted after ~64 packets and counted on every packet thereafter.
	tab := New(Config{Buckets: 1 << 12, EpochShift: 40, TTL: 8, SampleShift: 6})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		tab.Touch(uint64(1e6)+uint64(rng.Int63n(1<<40)), uint64(i))
	}
	st := tab.Stats()
	if st.Shed == 0 {
		t.Fatal("2^-6 front-end shed no mice")
	}
	shedFrac := float64(st.Shed) / float64(st.Offered)
	if shedFrac < 0.90 {
		t.Fatalf("one-packet mice shed fraction = %.3f, want ≥ 0.90", shedFrac)
	}
	// An elephant sending 2048 packets must get through and then count.
	elephant := uint64(7)
	var admittedAt int = -1
	for i := 0; i < 2048; i++ {
		_, out := tab.Touch(elephant, uint64(10000+i))
		if out == Admitted && admittedAt < 0 {
			admittedAt = i
		}
	}
	if admittedAt < 0 {
		t.Fatal("elephant never admitted through the 2^-6 coin")
	}
	c, ok := tab.Lookup(elephant, 12047)
	if !ok || c != uint64(2048-admittedAt) {
		t.Fatalf("elephant count = %d (ok=%v), want %d", c, ok, 2048-admittedAt)
	}
	checkLedger(t, tab)
}

// TestLedgerProperty drives random churny workloads and asserts the ledger
// invariants at every checkpoint — the insert/evict/expire conservation law
// of the ISSUE.
func TestLedgerProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Buckets:     1 << uint(4+rng.Intn(6)),
			EpochShift:  uint(8 + rng.Intn(8)),
			TTL:         uint64(1 + rng.Intn(4)),
			SampleShift: uint(rng.Intn(3) * 2),
		}
		tab := New(cfg)
		var ts uint64
		keyspace := uint64(1 + rng.Intn(4*cfg.Buckets))
		for step := 0; step < 20000; step++ {
			ts += uint64(rng.Intn(1 << 10))
			tab.Touch(uint64(rng.Int63n(int64(keyspace))), ts)
			if step%4999 == 0 {
				checkLedger(t, tab)
			}
		}
		checkLedger(t, tab)
		st := tab.Stats()
		if st.Offered != 20000 {
			t.Fatalf("seed %d: offered = %d, want 20000", seed, st.Offered)
		}
	}
}

// TestDeterministicPlacement: two tables fed the same sequence are
// bit-identical — the property the fuzz target extends to arbitrary inputs.
func TestDeterministicPlacement(t *testing.T) {
	cfg := Config{Buckets: 256, EpochShift: 12, TTL: 3, SampleShift: 2}
	a, b := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(11))
	var ts uint64
	for i := 0; i < 50000; i++ {
		ts += uint64(rng.Intn(4096))
		k := uint64(rng.Int63n(1024))
		ia, oa := a.Touch(k, ts)
		ib, ob := b.Touch(k, ts)
		if ia != ib || oa != ob {
			t.Fatalf("step %d: divergent outcomes (%d,%v) vs (%d,%v)", i, ia, oa, ib, ob)
		}
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || a.stamps[i] != b.stamps[i] || a.counts[i] != b.counts[i] {
			t.Fatalf("bucket %d diverged", i)
		}
	}
}

// TestBoundedMemory pins the capacity contract: millions of distinct keys
// leave the backing arrays untouched in size — state is bounded by
// configuration, not by offered cardinality.
func TestBoundedMemory(t *testing.T) {
	keys := 1 << 16
	if !testing.Short() {
		keys = 1 << 20
	}
	tab := New(Config{Buckets: 1 << 10, EpochShift: 30, TTL: 4})
	cells := tab.MemoryCells()
	kcap, scap, ccap := cap(tab.keys), cap(tab.stamps), cap(tab.counts)
	for k := 0; k < keys; k++ {
		tab.Touch(uint64(k), uint64(k))
	}
	if tab.MemoryCells() != cells {
		t.Fatalf("MemoryCells moved: %d → %d", cells, tab.MemoryCells())
	}
	if cap(tab.keys) != kcap || cap(tab.stamps) != scap || cap(tab.counts) != ccap {
		t.Fatal("backing arrays reallocated under high cardinality")
	}
	if tab.Occupied() > tab.Buckets() {
		t.Fatalf("occupied %d exceeds buckets %d", tab.Occupied(), tab.Buckets())
	}
	checkLedger(t, tab)
}

// TestZeroAllocTouch pins the 0 allocs/packet steady-state contract for the
// whole per-packet surface.
func TestZeroAllocTouch(t *testing.T) {
	tab := New(Config{Buckets: 1 << 12, EpochShift: 20, TTL: 4, SampleShift: 2})
	var ts, k uint64
	if n := testing.AllocsPerRun(10000, func() {
		k = k*2862933555777941757 + 3037000493
		ts += 512
		tab.Touch(k>>40, ts)
		tab.Lookup(k>>41, ts)
	}); n != 0 {
		t.Fatalf("Touch/Lookup allocate %.1f per packet, want 0", n)
	}
}

// TestErrorVsDenseBaseline measures the flow-table's count error against a
// dense exact baseline on a zipf population at the documented operating
// point (load factor ≈ 0.5 at 2-left, no sampling), and pins the DESIGN.md
// bounds: zero error on the top-100 flows, ≤ 1% of packets lost to
// rejection.
func TestErrorVsDenseBaseline(t *testing.T) {
	population := uint64(1 << 16)
	packets := 1 << 18
	if !testing.Short() {
		population = 1 << 20 // the 1M-flow operating point of the ISSUE
		packets = 1 << 22
	}
	tab := New(Config{Buckets: 1 << 21, EpochShift: 62, TTL: 8})
	if testing.Short() {
		tab = New(Config{Buckets: 1 << 17, EpochShift: 62, TTL: 8})
	}
	dense := make([]uint64, population)
	z := rand.NewZipf(rand.New(rand.NewSource(3)), 1.2, 1, population-1)
	for i := 0; i < packets; i++ {
		k := z.Uint64()
		dense[k]++
		tab.Touch(k, uint64(i))
	}
	st := tab.Stats()
	lost := float64(st.Rejected+st.Shed) / float64(st.Offered)
	if lost > 0.01 {
		t.Fatalf("lost-packet fraction %.4f exceeds the 1%% bound (stats %+v)", lost, st)
	}
	// Top-100 flows by exact count must be tracked exactly.
	type kc struct{ k, c uint64 }
	var ranked []kc
	for k, c := range dense {
		if c > 0 {
			ranked = append(ranked, kc{uint64(k), c})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].k < ranked[j].k
	})
	top := 100
	if len(ranked) < top {
		top = len(ranked)
	}
	for _, e := range ranked[:top] {
		got, ok := tab.Lookup(e.k, uint64(packets))
		if !ok || got != e.c {
			t.Fatalf("top flow %d: table %d (ok=%v), exact %d", e.k, got, ok, e.c)
		}
	}
	checkLedger(t, tab)
}

// String names the outcome for test and log output.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Admitted:
		return "admitted"
	case Evicted:
		return "evicted"
	case Rejected:
		return "rejected"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// Buckets returns the table capacity.
func (t *Table) Buckets() int { return len(t.keys) }
