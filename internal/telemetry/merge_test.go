package telemetry

import (
	"math/rand"
	"strings"
	"testing"

	"stat4/internal/core"
)

// TestHistMergeMatchesSerial shards a sample stream over K histograms,
// merges them, and checks the result against one histogram that saw every
// sample: exact fields (count, sum, min, max) must be equal, and the
// re-derived P50/P99 must sit at the marker equilibrium of the combined
// bucket distribution while movement counts sum across shards.
func TestHistMergeMatchesSerial(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(40 + k)))
		serial := NewHist()
		shards := make([]*Hist, k)
		for i := range shards {
			shards[i] = NewHist()
		}
		for i := 0; i < 5000; i++ {
			v := uint64(rng.Intn(1 << uint(rng.Intn(20))))
			serial.Observe(v)
			shards[rng.Intn(k)].Observe(v)
		}
		merged := NewHist()
		for _, s := range shards {
			if err := merged.MergeFrom(s); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Count() != serial.Count() || merged.Sum() != serial.Sum() ||
			merged.Min() != serial.Min() || merged.Max() != serial.Max() {
			t.Fatalf("k=%d: merged (count=%d sum=%d min=%d max=%d), serial (%d %d %d %d)",
				k, merged.Count(), merged.Sum(), merged.Min(), merged.Max(),
				serial.Count(), serial.Sum(), serial.Min(), serial.Max())
		}
		// Bucket distributions are identical, so the merged markers (at
		// equilibrium by construction) match serial markers re-derived over
		// the same counters.
		sd := serial.Dist()
		if err := sd.MergeFrom(NewHist().Dist()); err != nil { // no-op merge re-derives serial markers
			t.Fatal(err)
		}
		if merged.P50() != serial.P50() || merged.P99() != serial.P99() {
			t.Fatalf("k=%d: merged P50/P99 = %d/%d, serial re-derived %d/%d",
				k, merged.P50(), merged.P99(), serial.P50(), serial.P99())
		}
		lm, ls := merged.LogMoments(), serial.LogMoments()
		if lm.N != ls.N || lm.Sum != ls.Sum || lm.Sumsq != ls.Sumsq {
			t.Fatalf("k=%d: merged log moments (%d,%d,%d), serial (%d,%d,%d)",
				k, lm.N, lm.Sum, lm.Sumsq, ls.N, ls.Sum, ls.Sumsq)
		}
		var moves uint64
		for _, s := range shards {
			moves += s.P50Moves()
		}
		if merged.P50Moves() != moves {
			t.Fatalf("k=%d: merged P50 moves %d, shard sum %d", k, merged.P50Moves(), moves)
		}
	}
}

// TestHistMergeEmpty checks merging empty histograms leaves min/max sane.
func TestHistMergeEmpty(t *testing.T) {
	a, b := NewHist(), NewHist()
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatalf("empty merge: count=%d min=%d max=%d", a.Count(), a.Min(), a.Max())
	}
	b.Observe(7)
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1 || a.Min() != 7 || a.Max() != 7 {
		t.Fatalf("after merging one sample: count=%d min=%d max=%d", a.Count(), a.Min(), a.Max())
	}
}

// TestShardedPipelineRegister drives per-shard observers, refreshes the
// merged view, and checks the registry exposes both the fleet totals and the
// shardN_ split as a valid integer exposition, with no per-shard drop series.
func TestShardedPipelineRegister(t *testing.T) {
	sp := NewShardedPipeline(2)
	sp.Shards[0].PacketCost(100)
	sp.Shards[0].PacketCost(200)
	sp.Shards[1].PacketCost(400)
	sp.Shards[0].DigestEmitted()
	sp.Shards[1].DigestEmitted()
	sp.Shards[1].DigestDropped()
	sp.Refresh()

	if got := sp.Merged.Cost.Count(); got != 3 {
		t.Fatalf("merged cost count = %d, want 3", got)
	}
	if got := sp.Merged.Cost.Sum(); got != 700 {
		t.Fatalf("merged cost sum = %d, want 700", got)
	}

	reg := NewRegistry("test")
	sp.Register(reg)
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"test_packet_cost_ns_count 3",
		"test_digests_emitted 2",
		"test_shard0_packet_cost_ns_count 2",
		"test_shard1_packet_cost_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// A shard's digests are staged, never dropped by the shard: the fleet's
	// drops are the sharded switch's mailbox count, exported by its owner.
	if strings.Contains(out, "digests_dropped") {
		t.Fatalf("shard observers export a drop series:\n%s", out)
	}
	if _, err := ValidateExposition(out); err != nil {
		t.Fatal(err)
	}

	// Refresh after more traffic replaces, not double-counts, the merge.
	sp.Shards[1].PacketCost(800)
	sp.Refresh()
	if got := sp.Merged.Cost.Count(); got != 4 {
		t.Fatalf("refreshed merged cost count = %d, want 4", got)
	}
}

// TestShardedPipelineIngestSeries pins the ingest plane's export: depth-style
// readers render as TYPE gauge, shed totals as counters, nil readers as zero,
// and the whole exposition still validates.
func TestShardedPipelineIngestSeries(t *testing.T) {
	sp := NewShardedPipeline(1)
	depth := uint64(3)
	sp.Ingest = &IngestMetrics{
		RingDepth:   func() uint64 { return depth },
		RingCap:     func() uint64 { return 64 },
		BlocksInUse: func() uint64 { return 2 },
		ShedBatches: func() uint64 { return 5 },
		// ShedFrames deliberately nil: it must render as 0, not panic.
	}
	reg := NewRegistry("stat4d")
	sp.Register(reg)

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE stat4d_ingest_ring_depth gauge\nstat4d_ingest_ring_depth 3",
		"# TYPE stat4d_ingest_ring_capacity gauge\nstat4d_ingest_ring_capacity 64",
		"# TYPE stat4d_ingest_blocks_in_use gauge\nstat4d_ingest_blocks_in_use 2",
		"# TYPE stat4d_ingest_shed_batches counter\nstat4d_ingest_shed_batches 5",
		"# TYPE stat4d_ingest_shed_frames counter\nstat4d_ingest_shed_frames 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if _, err := ValidateExposition(out); err != nil {
		t.Fatal(err)
	}

	// Gauges are lazy: a second render sees the new depth, and the JSON
	// snapshot carries them under their own key.
	depth = 9
	snap := reg.Snapshot()
	if len(snap.Gauges) != 3 {
		t.Fatalf("snapshot has %d gauges, want 3", len(snap.Gauges))
	}
	if snap.Gauges[0].Name != "ingest_ring_depth" || snap.Gauges[0].Value != 9 {
		t.Fatalf("gauge[0] = %+v, want ingest_ring_depth 9", snap.Gauges[0])
	}
}

// Dist exposes the underlying frequency distribution (read-only for
// callers), mainly for tests that cross-check the marker arithmetic.
func (h *Hist) Dist() *core.FreqDist { return h.dist }
