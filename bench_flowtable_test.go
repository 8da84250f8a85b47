package stat4

import (
	"testing"

	"stat4/internal/flowtable"
)

// --- sparse flow-table state plane -------------------------------------------
//
// The flow-table benchmarks pin the tentpole claim: per-packet cost is bounded
// and independent of how many flows the table is tracking. Isolating that
// takes care, because two confounds scale with a naive "insert N, touch N"
// setup: the timed key list's own DRAM residency, and the left/right
// placement mix (a nearly empty table parks everything in its left bucket,
// so low tiers would win an extra cache hit that has nothing to do with
// per-flow cost). So every tier runs against the same 2^23-bucket table
// filled once to its 4M-flow capacity placement; tiers differ only in how
// many of those flows are still live (re-stamped into a fresh epoch, the
// rest left to age out), and the timed loop cycles a fixed 64k-key sample of
// the live set. Touch and Lookup probe exactly two buckets regardless, so
// ns/op should be flat from 100k to 4M live flows, with 0 allocs/op.

// ftBenchBuckets sizes every steady-state benchmark table: room for 4M live
// flows at ~0.5 load factor.
const ftBenchBuckets = 1 << 23

// ftBenchKey spreads sequential flow ids over the key space (Weyl increment);
// the table hashes keys anyway, this just avoids benchmarking a degenerate
// arithmetic sequence.
func ftBenchKey(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 1 }

// ftBenchLiveTs is the timestamp of the live epoch: three epochs past the
// fill stamps (epoch 0, TTL 1), so fill-time entries are expired and only
// re-stamped flows count as live.
const ftBenchLiveTs = uint64(3) << 20

// ftBenchFill builds the shared capacity placement — 4M flows offered to a
// 2^23-bucket table — then re-stamps a uniform `flows`-sized subset into the
// live epoch and returns a fixed 64k sample of that live set. Placement is
// identical across tiers (a Touch on a flow's own expired entry reclaims the
// same bucket), so varying `flows` varies liveness and nothing else.
func ftBenchFill(b *testing.B, flows int) (*flowtable.Table, []uint64) {
	b.Helper()
	t := flowtable.New(flowtable.Config{Buckets: ftBenchBuckets, EpochShift: 20, TTL: 1})
	admitted := make([]uint64, 0, 4_000_000)
	for i := 0; i < 4_000_000; i++ {
		k := ftBenchKey(i)
		if _, out := t.Touch(k, 1); out == flowtable.Admitted {
			admitted = append(admitted, k)
		}
	}
	if len(admitted) < 2_000_000 {
		b.Fatalf("prefill admitted only %d of 4M flows", len(admitted))
	}
	live := ftBenchThin(admitted, flows)
	for _, k := range live {
		t.Touch(k, ftBenchLiveTs)
	}
	if got := t.Live(ftBenchLiveTs); got != len(live) {
		b.Fatalf("re-stamped %d flows but %d are live", len(live), got)
	}
	return t, ftBenchThin(live, 1<<16)
}

// ftBenchThin takes a uniform stride sample of n keys, so every tier's key
// set has the same placement distribution as the full admitted population.
func ftBenchThin(keys []uint64, n int) []uint64 {
	if len(keys) <= n {
		return keys
	}
	out := make([]uint64, 0, n)
	stride := len(keys) / n
	for i := 0; i < len(keys) && len(out) < n; i += stride {
		out = append(out, keys[i])
	}
	return out
}

var ftBenchSizes = []struct {
	name  string
	flows int
}{
	{"live=100k", 100_000},
	{"live=1M", 1_000_000},
	{"live=4M", 4_000_000},
}

// BenchmarkFlowTableTouch is the steady-state hit path: every packet belongs
// to a live flow, so Touch stamps and counts in place. This is the per-packet
// cost a switch pays once the flow set has been admitted.
func BenchmarkFlowTableTouch(b *testing.B) {
	for _, sz := range ftBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			t, keys := ftBenchFill(b, sz.flows)
			idx := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, out := t.Touch(keys[idx], ftBenchLiveTs)
				benchSink += uint64(out)
				if idx++; idx == len(keys) {
					idx = 0
				}
			}
		})
	}
}

// BenchmarkFlowTableLookup reads live flows without mutating them — the
// control plane's point-query cost.
func BenchmarkFlowTableLookup(b *testing.B) {
	for _, sz := range ftBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			t, keys := ftBenchFill(b, sz.flows)
			idx := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, _ := t.Lookup(keys[idx], ftBenchLiveTs)
				benchSink += c
				if idx++; idx == len(keys) {
					idx = 0
				}
			}
		})
	}
}

// BenchmarkFlowTableEvict is the reclaim path: a near-full table whose
// entries have all aged out, fed a stream of new flows with the clock
// advancing one epoch per packet, so almost every Touch claims a bucket by
// evicting an expired entry — lazy expiry's worst case, and still two probes.
func BenchmarkFlowTableEvict(b *testing.B) {
	const buckets = 1 << 21
	t := flowtable.New(flowtable.Config{Buckets: buckets, EpochShift: 16, TTL: 1})
	offered := 2 * buckets // drive occupancy to ~95% (tanh of the offered load)
	for i := 0; i < offered; i++ {
		t.Touch(ftBenchKey(i), 1)
	}
	next := offered
	ts := uint64(2) << 16 // two epochs past the prefill stamps: all expired
	pre := t.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out := t.Touch(ftBenchKey(next), ts)
		benchSink += uint64(out)
		next++
		ts += 1 << 16
	}
	b.StopTimer()
	st := t.Stats()
	b.ReportMetric(float64(st.Evicted-pre.Evicted)/float64(st.Offered-pre.Offered), "evict-frac")
}

// BenchmarkFlowTableDenseBaseline is the comparison floor: a dense counter
// array indexed by masked key — one unconditional increment, no keys, no
// expiry, and no way to scale past its address space. The gap to
// FlowTableTouch is the price of exact keys plus lazy expiry.
func BenchmarkFlowTableDenseBaseline(b *testing.B) {
	counts := make([]uint64, ftBenchBuckets)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = ftBenchKey(i)
	}
	idx := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts[keys[idx]&(ftBenchBuckets-1)]++
		if idx++; idx == len(keys) {
			idx = 0
		}
	}
	benchSink += counts[0]
}
