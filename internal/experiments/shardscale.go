package experiments

import (
	"fmt"
	"strings"

	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// This file is the shard-scaling experiment behind the BENCH shard table:
// the same workload is replayed through 1..N-shard deployments, and each row
// reports the load balance the flow-hash dispatcher achieved plus the
// modeled multi-pipeline speedup — total packets over the busiest shard's
// packets, the wall-clock determinant once shards run on their own cores —
// and whether the merged snapshot stayed byte-identical to the serial
// reference (it must; a false here is a bug, not a data point).

// ShardScaleRow is one shard count's measurements.
type ShardScaleRow struct {
	Shards  int
	Packets uint64
	// MaxShardPackets is the busiest shard's packet count; the critical
	// path of a run where every shard has its own pipeline.
	MaxShardPackets uint64
	// ModeledSpeedup is Packets / MaxShardPackets: the speedup an N-pipeline
	// deployment gets over serial on this workload, bounded by load balance
	// rather than by shard count.
	ModeledSpeedup float64
	// Equivalent records whether the merged canonical snapshot was
	// byte-identical to the serial switch's.
	Equivalent bool
}

// ShardScaleParams configures the sweep.
type ShardScaleParams struct {
	ShardCounts []int // default {1, 2, 4, 8}
	Flows       int   // distinct destination hosts (default 48)
	DurationNs  uint64
	Seed        int64
}

func (p *ShardScaleParams) defaults() {
	if len(p.ShardCounts) == 0 {
		p.ShardCounts = []int{1, 2, 4, 8}
	}
	if p.Flows == 0 {
		p.Flows = 48
	}
	if p.Flows > 64 {
		p.Flows = 64 // the bound distribution tracks hosts in one /26
	}
	if p.DurationNs == 0 {
		p.DurationNs = 2e6
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

func shardScaleStream(p ShardScaleParams) traffic.Stream {
	dests := make([]packet.IP4, p.Flows)
	for i := range dests {
		dests[i] = packet.ParseIP4(10, 0, 0, byte(i))
	}
	return &traffic.LoadBalanced{Dests: dests, Rate: 50e6, End: p.DurationNs, Seed: p.Seed, Jitter: 0.3}
}

// ShardScale runs the sweep. Every shard count builds its own runtimes and
// replays its own copy of the generator, so the rows fan out over the worker
// pool and reduce in index order.
func ShardScale(params ShardScaleParams) ([]ShardScaleRow, error) {
	params.defaults()
	rows := make([]ShardScaleRow, len(params.ShardCounts))
	errs := make([]error, len(params.ShardCounts))
	forEach(len(params.ShardCounts), func(i int) {
		rows[i], errs[i] = shardScaleRun(params, params.ShardCounts[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func shardScaleRun(params ShardScaleParams, shards int) (ShardScaleRow, error) {
	lib := stat4p4.Build(stat4p4.Options{Slots: 1, Size: 64, Stages: 1})
	sr, err := stat4p4.NewShardedRuntime(lib, shards)
	if err != nil {
		return ShardScaleRow{}, err
	}
	defer sr.Close()
	serial, err := stat4p4.NewRuntime(lib)
	if err != nil {
		return ShardScaleRow{}, err
	}
	dstBase := uint64(packet.ParseIP4(10, 0, 0, 0))
	if _, err := sr.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
		Base: dstBase, Size: 64, PA: 1, PB: 1}); err != nil {
		return ShardScaleRow{}, err
	}
	if _, err := serial.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
		Base: dstBase, Size: 64, PA: 1, PB: 1}); err != nil {
		return ShardScaleRow{}, err
	}

	st := shardScaleStream(params)
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		sr.Sharded().ProcessPacket(p.TsNs, 1, p.Frame)
		serial.Sharded().ProcessPacket(p.TsNs, 1, p.Frame)
	}

	row := ShardScaleRow{Shards: shards}
	for i := 0; i < shards; i++ {
		in := sr.Sharded().Shard(i).Stats().PktsIn
		row.Packets += in
		if in > row.MaxShardPackets {
			row.MaxShardPackets = in
		}
	}
	if row.MaxShardPackets > 0 {
		row.ModeledSpeedup = float64(row.Packets) / float64(row.MaxShardPackets)
	}

	merged := sr.MergedSnapshot()
	want := serial.Switch().Snapshot()
	lib.CanonicalizeSnapshot(want, sr.FreqSlots())
	row.Equivalent = true
	for name, cells := range want.Registers {
		got := merged.Registers[name]
		for i := range cells {
			if got[i] != cells[i] {
				row.Equivalent = false
			}
		}
	}
	return row, nil
}

// FormatShardScale renders the sweep as a text table.
func FormatShardScale(rows []ShardScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %-9s %-10s %-9s %s\n", "shards", "packets", "max-shard", "speedup", "equivalent")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %-9d %-10d %-9.2f %v\n",
			r.Shards, r.Packets, r.MaxShardPackets, r.ModeledSpeedup, r.Equivalent)
	}
	return b.String()
}
