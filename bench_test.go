// Benchmarks regenerating each of the paper's tables and figures (see the
// per-experiment index in DESIGN.md), plus the ablation benches for the
// design choices Stat4 makes. Run with:
//
//	go test -bench=. -benchmem
package stat4

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"stat4/internal/core"
	"stat4/internal/experiments"
	"stat4/internal/flowtable"
	"stat4/internal/ingest"
	"stat4/internal/intstat"
	"stat4/internal/netem"
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/ring"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// --- E1: Table 2 — square root approximation -------------------------------

// BenchmarkTable2Sqrt measures the per-operand cost of the Figure 2
// approximate square root over the table's full input span.
func BenchmarkTable2Sqrt(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += intstat.SqrtApprox(uint64(i%10000 + 1))
	}
	benchSink = sink
}

// BenchmarkTable2Regenerate times the full table harness.
func BenchmarkTable2Regenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if len(rows) != 4 {
			b.Fatal("table shape")
		}
	}
}

// --- E2: Table 3 — online median -------------------------------------------

// BenchmarkTable3Median measures one median-tracked observation, the
// per-packet cost behind Table 3.
func BenchmarkTable3Median(b *testing.B) {
	d := core.NewFreqDist(1000)
	d.TrackMedian()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Observe(uint64(rng.Intn(1000))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Regenerate times one repetition of the N=1000 row.
func BenchmarkTable3Regenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(1, int64(i))
		if len(rows) != 3 {
			b.Fatal("table shape")
		}
	}
}

// --- E3: Figure 5 — echo validation ----------------------------------------

// BenchmarkEchoValidation measures one echo frame through the full pipeline:
// parse, binding lookup, frequency update, variance, sqrt if-tree, median
// step, reply deparse.
func BenchmarkEchoValidation(b *testing.B) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 512, Stages: 1, Echo: true})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-echo", Match: stat4p4.EchoOnly(),
		Base: stat4p4.EchoBias - 255, Size: 512, PA: 1, PB: 1}); err != nil {
		b.Fatal(err)
	}
	sw := rt.Sharded()
	rng := rand.New(rand.NewSource(2))
	frames := make([][]byte, 512)
	for i := range frames {
		frames[i] = packet.NewEchoFrame(packet.MAC{1}, packet.MAC{2}, int16(rng.Intn(511)-255)).Serialize()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := sw.ProcessFrame(uint64(i), 1, frames[i%len(frames)]); len(out) != 1 {
			b.Fatal("no reply")
		}
	}
}

// --- E4: Section 4 — case study --------------------------------------------

// BenchmarkCaseStudy runs one complete (small-configuration) detection and
// drill-down experiment per iteration.
func BenchmarkCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CaseStudy(experiments.CaseStudyParams{
			IntervalShift: 20, WindowSize: 20, PacketsPerInterval: 50,
			CtrlDelay: 20e6, Seed: int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Detected {
			b.Fatal("undetected")
		}
	}
}

// --- E5: Section 4 — resource consumption ----------------------------------

// BenchmarkResourceAnalysis measures the static analyzer over the emitted
// default program.
func BenchmarkResourceAnalysis(b *testing.B) {
	lib := stat4p4.Build(stat4p4.DefaultOptions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p4.AnalyzeProgram(lib.Prog)
		if r.TotalBytes == 0 {
			b.Fatal("empty report")
		}
	}
}

// --- E6: Figure 1 — architecture comparison --------------------------------

// BenchmarkArchComparison runs one sketch-only pull experiment (100 ms
// period, small window) per iteration.
func BenchmarkArchComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ArchComparison(experiments.ArchParams{
			Runs: 1, Seed: int64(i) + 1, WindowSize: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- data-plane throughput --------------------------------------------------

// BenchmarkSwitchFreqUpdate is the per-packet cost of a bound frequency
// distribution in the interpreted switch (no echo reply).
func BenchmarkSwitchFreqUpdate(b *testing.B) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
		Size: 256, PA: 1, PB: 1}); err != nil {
		b.Fatal(err)
	}
	sw := rt.Sharded()
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessPacket(uint64(i), 1, pkt)
	}
}

// BenchmarkSwitchWindowUpdate is the per-packet cost of a bound window
// distribution (folds amortised over ~100-packet intervals).
func BenchmarkSwitchWindowUpdate(b *testing.B) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: 10, Capacity: 100, K: 2}); err != nil {
		b.Fatal(err)
	}
	sw := rt.Sharded()
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessPacket(uint64(i*10), 1, pkt)
	}
	b.StopTimer()
	if sw.Stats().DigestDrops > 0 {
		b.Log("digest drops:", sw.Stats().DigestDrops)
	}
}

// BenchmarkCoreFreqObserve is the same update in the reference library — the
// interpreter's overhead is the gap to BenchmarkSwitchFreqUpdate.
func BenchmarkCoreFreqObserve(b *testing.B) {
	d := core.NewFreqDist(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Observe(uint64(i & 255)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreWindowTick is the reference window fold.
func BenchmarkCoreWindowTick(b *testing.B) {
	w := core.NewWindow(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(1)
		if i%100 == 99 {
			w.CheckThenTick(2)
		}
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationSqrt compares the truncating Figure 2 square root, its
// rounding variant, and the exact Newton iteration the paper cannot use.
func BenchmarkAblationSqrt(b *testing.B) {
	fns := []struct {
		name string
		fn   func(uint64) uint64
	}{
		{"trunc", intstat.SqrtApprox},
		{"round", intstat.SqrtApproxRound},
		{"newton-exact", intstat.SqrtExact},
	}
	for _, f := range fns {
		b.Run(f.name, func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += f.fn(uint64(i)*2654435761 + 1)
			}
			benchSink = sink
		})
	}
}

// BenchmarkAblationMSB compares the three MSB layouts: the nested-if binary
// search the library emits, the linear threshold chain, and the plain loop a
// CPU would use.
func BenchmarkAblationMSB(b *testing.B) {
	fns := []struct {
		name string
		fn   func(uint64) int
	}{
		{"if-chain", intstat.MSBIfChain},
		{"linear", intstat.MSBLinear},
		{"loop", intstat.MSB},
	}
	for _, f := range fns {
		b.Run(f.name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += f.fn(uint64(i)*2654435761 + 1)
			}
			benchSinkInt = sink
		})
	}
}

// BenchmarkAblationLazySD compares lazy vs eager standard-deviation
// recomputation under a read-heavy pattern (one read per packet, one update
// per 100 packets — the traffic-rate monitoring shape).
func BenchmarkAblationLazySD(b *testing.B) {
	run := func(b *testing.B, eager bool) {
		var m core.Moments
		for i := 0; i < 100; i++ {
			m.AddSample(uint64(95 + i%10))
		}
		var sink uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%100 == 0 {
				m.AddSample(uint64(95 + i%10))
			}
			if eager {
				sink += m.StdDevEager()
			} else {
				sink += m.StdDev()
			}
		}
		benchSink = sink
	}
	b.Run("lazy", func(b *testing.B) { run(b, false) })
	b.Run("eager", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationEvict compares the window fold with the incremental
// squared shadow against recomputing the square at eviction time (legal only
// on multiply-capable targets).
func BenchmarkAblationEvict(b *testing.B) {
	b.Run("shadow-register", func(b *testing.B) {
		w := core.NewWindow(100)
		for i := 0; i < b.N; i++ {
			w.Add(1)
			if i%50 == 49 {
				w.Tick()
			}
		}
	})
	b.Run("recompute-square", func(b *testing.B) {
		// Hand-rolled fold that squares the evicted value instead of
		// keeping the shadow.
		cells := make([]uint64, 100)
		var cur, sum, sumsq uint64
		head, filled := 0, 0
		for i := 0; i < b.N; i++ {
			cur++
			if i%50 == 49 {
				if filled == len(cells) {
					old := cells[head]
					sum -= old
					sumsq -= old * old
				} else {
					filled++
				}
				cells[head] = cur
				sum += cur
				sumsq += cur * cur
				head = (head + 1) % len(cells)
				cur = 0
			}
		}
		benchSink = sum + sumsq
	})
}

// BenchmarkAblationPercentileStep compares the one-step-per-packet marker
// against a recirculation-like settle-to-balance on a sparse stream (the
// worst case for one-step accuracy, the worst case for settle cost).
func BenchmarkAblationPercentileStep(b *testing.B) {
	mk := func() (*core.FreqDist, *core.Percentile, *rand.Rand) {
		d := core.NewFreqDist(1000)
		return d, d.TrackMedian(), rand.New(rand.NewSource(3))
	}
	b.Run("one-step", func(b *testing.B) {
		d, _, rng := mk()
		for i := 0; i < b.N; i++ {
			// Zipf-ish sparse values: mostly small, occasionally huge.
			v := uint64(rng.Intn(10))
			if i%97 == 0 {
				v = uint64(900 + rng.Intn(100))
			}
			if err := d.Observe(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("settle", func(b *testing.B) {
		d, med, rng := mk()
		for i := 0; i < b.N; i++ {
			v := uint64(rng.Intn(10))
			if i%97 == 0 {
				v = uint64(900 + rng.Intn(100))
			}
			if err := d.Observe(v); err != nil {
				b.Fatal(err)
			}
			med.Settle(d, 1000)
		}
	})
}

// BenchmarkAblationStrictVsMul compares the behavioral-model emission
// (runtime multiply) with the strict shift-approximated emission on the same
// window workload.
func BenchmarkAblationStrictVsMul(b *testing.B) {
	run := func(b *testing.B, strict bool) {
		opts := stat4p4.Options{Slots: 1, Size: 256, Stages: 1}
		capacity := 100
		if strict {
			opts.Strict = true
			opts.StrictCapShift = 6
			capacity = 64
		}
		rt, err := stat4p4.NewRuntime(stat4p4.Build(opts))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
			IntervalShift: 10, Capacity: capacity, K: 2}); err != nil {
			b.Fatal(err)
		}
		sw := rt.Sharded()
		pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.IP4(9), 5, 80, 10).Serialize())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw.ProcessPacket(uint64(i*10), 1, pkt)
		}
	}
	b.Run("bmv2-mul", func(b *testing.B) { run(b, false) })
	b.Run("strict-shift", func(b *testing.B) { run(b, true) })
}

var (
	benchSink    uint64
	benchSinkInt int
)

// --- Section 5 extensions ----------------------------------------------------

// BenchmarkSparseVsDense quantifies the memory extension: per-observation
// cost of hash-addressed tracking (a never-expiring flow table) vs a dense
// counter array, at matched active-key counts.
func BenchmarkSparseVsDense(b *testing.B) {
	keys := make([]uint64, 1000)
	rng := rand.New(rand.NewSource(5))
	for i := range keys {
		keys[i] = uint64(rng.Uint32())
	}
	b.Run("flow-4k-buckets", func(b *testing.B) {
		d := flowtable.New(flowtable.Config{Buckets: 4096, EpochShift: 63, TTL: 1})
		for i := 0; i < b.N; i++ {
			d.Touch(keys[i%len(keys)], uint64(i))
		}
		b.ReportMetric(float64(d.MemoryCells()), "cells")
	})
	b.Run("dense-2^32-domain", func(b *testing.B) {
		// A dense array over the full key domain is unbuildable; use the
		// keys' low bits as a stand-in domain to time the update path and
		// report the cells a real dense array would need.
		d := core.NewFreqDist(1 << 16)
		for i := 0; i < b.N; i++ {
			_ = d.Observe(keys[i%len(keys)] & 0xffff)
		}
		b.ReportMetric(float64(uint64(1)<<32), "cells")
	})
}

// BenchmarkSwitchFlowUpdate is the per-packet cost of the emitted flow-table
// path bound never to expire (hash probe + shared accumulation).
func BenchmarkSwitchFlowUpdate(b *testing.B) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1, FlowTable: true, FlowTableSize: 256})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "flow-dst", Match: stat4p4.AllIPv4(),
		EpochShift: 63, TTL: 1}); err != nil {
		b.Fatal(err)
	}
	sw := rt.Sharded()
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.ParseIP4(203, 0, 113, 9), 5, 80, 10).Serialize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessPacket(uint64(i), 1, pkt)
	}
}

// --- entropy and heavy hitters ------------------------------------------------

// BenchmarkLog2Fixed measures the fixed-point log2 (MSB if-tree plus
// fractional refinement) that every entropy-tracked packet pays twice.
func BenchmarkLog2Fixed(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += intstat.Log2Fixed(uint64(i)*2654435761+1, 16)
	}
	benchSink = sink
}

// BenchmarkSwitchEntropyUpdate is the per-packet cost of a bound entropy
// slot: counter bump, two log2 if-trees, cell/sum maintenance, and the gated
// collapse check every 1024 observations.
func BenchmarkSwitchEntropyUpdate(b *testing.B) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1, Entropy: true})
	rt, err := stat4p4.NewRuntime(lib)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "entropy-dst", Match: stat4p4.AllIPv4(),
		Size: 256, CheckEvery: 1024}); err != nil {
		b.Fatal(err)
	}
	sw := rt.Sharded()
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i], _ = packet.Parse(packet.NewUDPFrame(1, packet.IP4(uint32(i*5%256)), 5, 80, 10).Serialize())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessPacket(uint64(i), 1, pkts[i&63])
	}
}

// BenchmarkSwitchHeavyHitterUpdate is the per-packet cost of the
// heavy-hitter path at two sampling budgets: shift=6 is the typical 2^-6
// coin (recirculation amortised away), shift=0 recirculates every packet —
// the structural worst case the stage budget must absorb.
func BenchmarkSwitchHeavyHitterUpdate(b *testing.B) {
	for _, shift := range []uint{6, 0} {
		b.Run(fmt.Sprintf("shift=%d", shift), func(b *testing.B) {
			lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1, HeavyHitter: true})
			rt, err := stat4p4.NewRuntime(lib)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Bind(stat4p4.Binding{Kind: "hh-src", Match: stat4p4.AllIPv4(),
				SampleShift: shift}); err != nil {
				b.Fatal(err)
			}
			sw := rt.Sharded()
			pkts := make([]*packet.Packet, 64)
			for i := range pkts {
				src := packet.ParseIP4(198, 18, byte(i/16), byte(i*7))
				pkts[i], _ = packet.Parse(packet.NewUDPFrame(src, packet.IP4(9), 5, 80, 10).Serialize())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessPacket(uint64(i), 1, pkts[i&63])
			}
			b.StopTimer()
			if shift == 0 && sw.Stats().Recirculated == 0 {
				b.Fatal("shift=0 never recirculated")
			}
		})
	}
}

// --- sharded datapath ---------------------------------------------------------

// shardedBenchBatch builds a fixed batch of UDP frames spread over many
// 5-tuples, so the flow-hash dispatcher has real spreading work.
func shardedBenchBatch(n int) []p4.FrameIn {
	rng := rand.New(rand.NewSource(11))
	batch := make([]p4.FrameIn, n)
	for i := range batch {
		src := packet.ParseIP4(192, 168, byte(rng.Intn(8)), byte(rng.Intn(250)))
		dst := packet.ParseIP4(10, 0, 0, byte(rng.Intn(200)))
		frame := packet.NewUDPFrame(src, dst, uint16(1024+rng.Intn(4096)), 80, 10).Serialize()
		batch[i] = p4.FrameIn{TsNs: uint64(i), Port: 1, Data: frame}
	}
	return batch
}

func newShardedBench(b *testing.B, shards int) *stat4p4.Runtime {
	b.Helper()
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 256, Stages: 1})
	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sr.Close)
	if _, err := sr.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
		Size: 256, PA: 1, PB: 1}); err != nil {
		b.Fatal(err)
	}
	return sr
}

// BenchmarkShardedProcessBatch measures the dispatcher's fork-join with no
// output taken (the daemon's call): partition by flow hash, run shard 0 on
// the caller and the other partitions on their workers, reduce in shard
// order. With fewer idle cores than shards the shards time-slice, so this
// bench then shows the dispatch overhead rather than a speedup — see
// BenchmarkShardedCriticalPath for the multi-pipeline wall-clock model.
func BenchmarkShardedProcessBatch(b *testing.B) {
	batch := shardedBenchBatch(4096)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sr := newShardedBench(b, shards)
			ss := sr.Sharded()
			ss.ProcessBatch(batch, nil) // take lazily-grown buffers to steady state
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.ProcessBatch(batch, nil)
			}
			b.ReportMetric(float64(len(batch)), "pkts/op")
		})
	}
}

// BenchmarkShardedCriticalPath times only the busiest shard's partition run
// serially — the wall clock of one batch on a chassis where every shard is
// its own pipeline, which is what sharding buys on real multi-core/multi-pipe
// hardware. With a balanced flow hash the busiest partition is ≈ batch/N, so
// ns/op shrinks near-linearly in the shard count.
func BenchmarkShardedCriticalPath(b *testing.B) {
	batch := shardedBenchBatch(4096)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sr := newShardedBench(b, shards)
			ss := sr.Sharded()
			parts := make([][]p4.FrameIn, shards)
			for _, fr := range batch {
				s := ss.ShardOf(fr.Data)
				parts[s] = append(parts[s], fr)
			}
			critical := parts[0]
			for _, p := range parts[1:] {
				if len(p) > len(critical) {
					critical = p
				}
			}
			sw := ss.Shard(0)
			sw.ProcessBatch(critical, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessBatch(critical, nil)
			}
			b.ReportMetric(float64(len(critical)), "critical-pkts/op")
		})
	}
}

// BenchmarkShardScale runs one shard-sweep row (4 shards, short workload)
// per iteration: replay, merge, canonical-equivalence check.
func BenchmarkShardScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ShardScale(experiments.ShardScaleParams{
			DurationNs: 2e5, ShardCounts: []int{4}, Seed: int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Equivalent {
			b.Fatal("merged snapshot diverged from serial")
		}
	}
}

// --- The simulation engine --------------------------------------------------

// simBenchOffsets spreads consecutive timestamps across wheel levels (L0
// neighbours, same-bucket ties, L1/L2 jumps) so the schedule path is not
// measured on a single lucky slot pattern.
var simBenchOffsets = [8]uint64{1, 17, 300, 5_000, 9, 131_072, 40, 70_000}

// BenchmarkSimSchedule measures scheduling one packet-arrival event into an
// idle-but-warm simulator — the engine's insert cost, with dispatch drained
// off the clock: a slab write plus a bucket append (0 allocs).
func BenchmarkSimSchedule(b *testing.B) {
	rt, err := stat4p4.NewRuntime(stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1}))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: 10, Capacity: 8, K: 2}); err != nil {
		b.Fatal(err)
	}
	sim := netem.NewSim()
	node := netem.NewSwitchNode(sim, rt.Sharded(), 500)
	node.OnDigest = func(uint64, p4.Digest) {}
	node.Connect(0, 100, func(uint64, []byte) {})
	pkt, _ := packet.Parse(packet.NewUDPFrame(1, packet.IP4(200), 5, 80, 10).Serialize())
	ts := sim.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&4095 == 4095 {
			b.StopTimer()
			sim.Run() // drain off the clock: this bench times inserts
			ts = sim.Now()
			b.StartTimer()
		}
		ts += simBenchOffsets[i&7]
		node.Inject(ts, 1, traffic.Pkt{TsNs: ts, Frame: pkt})
	}
	b.StopTimer()
	sim.Run()
}

// BenchmarkSimDispatch measures popping and running one due generic event
// from a 4096-deep backlog — the engine's extract-min cost (scheduling
// happens off the clock).
func BenchmarkSimDispatch(b *testing.B) {
	sim := netem.NewSim()
	fn := func() {}
	const batch = 4096
	done := 0
	b.ResetTimer()
	for done < b.N {
		b.StopTimer()
		t := sim.Now()
		for j := 0; j < batch; j++ {
			t += simBenchOffsets[j&7]
			sim.At(t, fn)
		}
		b.StartTimer()
		sim.Run()
		done += batch
	}
}

// offsetStream shifts a stream's timestamps by a fixed base, so a fresh
// trace can be replayed later in an already-running simulation; it also
// counts the packets it hands out.
type offsetStream struct {
	base uint64
	st   traffic.Stream
	n    int
}

func (o *offsetStream) Next() (traffic.Pkt, bool) {
	p, ok := o.st.Next()
	if !ok {
		return p, false
	}
	p.TsNs += o.base
	o.n++
	return p, true
}

// BenchmarkInjectStreamE2E replays one ~200k-packet trace through a switch
// node per iteration — stream pump, packet processing, frame deliveries over
// a 200 µs link (≈100k deliveries in flight at steady state), digest
// forwarding. The switch monitors one target /16 while the bulk of the
// traffic is background load that misses the stats table, so the event
// engine — not the window update — dominates, which is what this benchmark
// isolates (BenchmarkSwitch* price the datapath itself), at 1, 4 and 8
// shards.
func BenchmarkInjectStreamE2E(b *testing.B) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	monitored := packet.NewPrefix(packet.ParseIP4(10, 9, 0, 0), 16)
	dests := []packet.IP4{packet.ParseIP4(10, 9, 0, 1)}
	for i := uint32(1); i < 16; i++ {
		dests = append(dests, packet.ParseIP4(10, 0, 0, 0)|packet.IP4(i))
	}
	mkStream := func(base uint64) *offsetStream {
		return &offsetStream{base: base, st: &traffic.LoadBalanced{
			Dests: dests, Rate: 5e8, End: 409_600, Seed: 7, Jitter: 0.2,
		}}
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sim := netem.NewSim()
			sr, err := stat4p4.NewShardedRuntime(lib, shards)
			if err != nil {
				b.Fatal(err)
			}
			defer sr.Close()
			if _, err := sr.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.DstIn(monitored),
				IntervalShift: 10, Capacity: 8, K: 2}); err != nil {
				b.Fatal(err)
			}
			node := netem.NewSwitchNode(sim, sr.Sharded(), 500)
			node.OnDigest = func(uint64, p4.Digest) {}
			node.Connect(0, 200_000, func(uint64, []byte) {})
			// One untimed replay takes the frame pool and event slab to
			// steady state.
			warm := mkStream(sim.Now())
			node.InjectStream(warm, 1)
			sim.Run()
			pkts := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := mkStream(sim.Now())
				node.InjectStream(st, 1)
				sim.Run()
				pkts += st.n
			}
			b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
		})
	}
}

// --- the ingest plane (internal/ring, internal/ingest, stat4d) ---------------

// BenchmarkRingPush measures the raw descriptor handoff: one TryPush plus one
// TryPop per op, ping-pong on the same goroutine so the numbers isolate the
// ring algebra (no scheduler noise). The MPSC variant pays two extra atomics
// for multi-producer safety.
func BenchmarkRingPush(b *testing.B) {
	b.Run("spsc", func(b *testing.B) {
		r := ring.NewSPSC(256)
		var d ring.Desc
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.TryPush(ring.Desc{Block: uint32(i), N: 1, Seq: uint64(i)})
			r.TryPop(&d)
		}
	})
	b.Run("mpsc", func(b *testing.B) {
		r := ring.NewMPSC(256)
		var d ring.Desc
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.TryPush(ring.Desc{Block: uint32(i), N: 1, Seq: uint64(i)})
			r.TryPop(&d)
		}
	})
}

// ingestBenchEngine wires an engine over a k=0 dst24 binding (digest-free, so
// the steady state stays allocation-free).
func ingestBenchEngine(b *testing.B, shards int, cfg ingest.Config) *ingest.Engine {
	b.Helper()
	sr := newShardedBench(b, shards)
	e := ingest.New(sr, cfg)
	b.Cleanup(e.Stop)
	return e
}

// BenchmarkIngestHandoff drives the full producer → MPSC ring → consumer →
// sharded datapath path with the stat4d machinery: frames are copied into
// slab blocks, descriptors cross the ring, and the consumer feeds the shard
// rings. Lossless (AddWait), so every op processes exactly the batch.
func BenchmarkIngestHandoff(b *testing.B) {
	batch := shardedBenchBatch(4096)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := ingestBenchEngine(b, shards, ingest.Config{BatchFrames: 256})
			p := e.NewProducer()
			defer p.Close()
			push := func() {
				for _, fr := range batch {
					p.AddWait(fr.TsNs, fr.Port, fr.Data)
				}
				p.FlushWait()
			}
			done := uint64(0)
			push()
			done += uint64(len(batch))
			for e.Frames() < done {
				runtime.Gosched()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push()
				done += uint64(len(batch))
				for e.Frames() < done {
					runtime.Gosched()
				}
			}
			b.ReportMetric(float64(len(batch)), "pkts/op")
		})
	}
}

// BenchmarkStat4dE2E adds the wire protocol on top: each op encodes the batch
// as length-prefixed records, streams it through ServeConn over an in-memory
// pipe, and waits for the datapath to absorb it — the full daemon path minus
// the kernel socket.
func BenchmarkStat4dE2E(b *testing.B) {
	batch := shardedBenchBatch(4096)
	var wire bytes.Buffer
	for _, fr := range batch {
		if err := ingest.WriteRecord(&wire, fr.TsNs, fr.Port, fr.Data); err != nil {
			b.Fatal(err)
		}
	}
	blob := wire.Bytes()
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := ingestBenchEngine(b, shards, ingest.Config{BatchFrames: 256})
			done := uint64(0)
			op := func() {
				if _, err := e.ServeConn(bytes.NewReader(blob)); err != nil {
					b.Fatal(err)
				}
				done += uint64(len(batch))
				// ServeConn uses the shedding Add; account shed frames so a
				// saturated run still terminates.
				for {
					_, shed := e.Shed()
					if e.Frames()+shed >= done {
						break
					}
					runtime.Gosched()
				}
			}
			op()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.ReportMetric(float64(len(batch)), "pkts/op")
		})
	}
}

// --- Set-up -----------------------------------------------------------------

// BenchmarkSetup measures constructing the daemon's datapath from stat4d's
// emitted program: runtime/shards=N is NewShardedRuntime plus Close
// (validate, instantiate and compile N shards, start their workers),
// runtime/flow the same at one shard for `stat4d -flow-table 1048576`'s
// program (48 MiB of flow-table registers), engine is ingest.New plus Stop on
// a one-shard runtime (ring, slab, telemetry, the consumer goroutine).
// Program emission is outside all of them. With -benchmem the B/op column
// shows what a construction commits up front: the engine's slab blocks are
// allocated on first use, so an idle engine holds none of them, and register
// cells are mapped demand-zero off the heap (Linux, non-race builds).
func BenchmarkSetup(b *testing.B) {
	opts := stat4p4.Options{Slots: 2, Size: 256, Stages: 1, Entropy: true, HeavyHitter: true}
	lib := stat4p4.Build(opts)
	newRuntime := func(b *testing.B, lib *stat4p4.Library, shards int) {
		for i := 0; i < b.N; i++ {
			sr, err := stat4p4.NewShardedRuntime(lib, shards)
			if err != nil {
				b.Fatal(err)
			}
			sr.Close()
		}
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("runtime/shards=%d", shards), func(b *testing.B) { newRuntime(b, lib, shards) })
	}
	opts.FlowTable, opts.FlowTableSize = true, 1<<20
	flowLib := stat4p4.Build(opts)
	b.Run("runtime/flow", func(b *testing.B) { newRuntime(b, flowLib, 1) })
	b.Run("engine", func(b *testing.B) {
		sr := newShardedBench(b, 1)
		for i := 0; i < b.N; i++ {
			ingest.New(sr, ingest.Config{}).Stop()
		}
	})
}
