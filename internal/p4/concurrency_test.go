package p4

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stat4/internal/packet"
)

// hammer runs the data plane on one goroutine while every function in
// control loops on a goroutine of its own until the data plane is done, and
// fails the test if the whole thing has not finished within a minute — the
// race detector finds the races, this finds the deadlocks.
func hammer(t *testing.T, dataPlane func(), control ...func()) {
	t.Helper()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, f := range control {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				f()
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		dataPlane()
		stop.Store(true)
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("data plane and control plane did not finish: deadlock on the pipeline lock?")
	}
}

func contractBatch(n int) []FrameIn {
	batch := make([]FrameIn, n)
	for i := range batch {
		dst := packet.ParseIP4(10, 0, byte(i%7), byte(i))
		batch[i] = FrameIn{TsNs: uint64(i), Port: 1, Data: udpTo(dst)}
	}
	batch[n/2].Data = []byte{1, 2, 3} // one parse error per batch
	return batch
}

// bindSlash8 installs the counter program's standing entry: 10/8 → cell 1.
func bindSlash8(t *testing.T, sw *ShardedSwitch) {
	t.Helper()
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 0, 0)), PrefixLen: 8}}, 0, "count_at", []uint64{1}); err != nil {
		t.Fatal(err)
	}
}

// controlPlane is every control-plane accessor of one shard of a
// counter-program switch, one hammer loop each, plus entry churn through the
// sharded switch. The churn moves 10.0.3/24 between cells 2 and 3, so
// whatever was installed when a frame matched, it counted in exactly one of
// cells 1..3; WriteCell and the stripe reset (cells 56..63, on every shard)
// stay away from them.
func controlPlane(t *testing.T, ss *ShardedSwitch, sw *Switch) []func() {
	t.Helper()
	reg, err := sw.Register("counters")
	if err != nil {
		t.Fatal(err)
	}
	return []func(){
		func() { sw.Snapshot() },
		func() { sw.Stats() },
		func() {
			if _, err := reg.Read(1); err != nil {
				t.Error(err)
			}
			reg.Snapshot()
			if err := reg.WriteCell(63, 5); err != nil {
				t.Error(err)
			}
			if err := ss.SetStripe(7, 8, 0); err != nil {
				t.Error(err)
			}
		},
		func() {
			id, err := ss.InsertEntry("bind",
				[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 3, 0)), PrefixLen: 24}}, 0, "count_at", []uint64{2})
			if err != nil {
				t.Error(err)
				return
			}
			if err := ss.DeleteEntry("bind", id); err != nil {
				t.Error(err)
			}
			if id, err = ss.InsertEntry("bind",
				[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 3, 0)), PrefixLen: 24}}, 0, "count_at", []uint64{3}); err != nil {
				t.Error(err)
				return
			}
			if err := ss.DeleteEntry("bind", id); err != nil {
				t.Error(err)
			}
		},
	}
}

// checkContractLedger asserts what `batches` contractBatches of `frames`
// frames in all leave behind, whatever the control plane did meanwhile: exact
// packet counters, and every parsed frame counted in exactly one of cells
// 1..3.
func checkContractLedger(t *testing.T, st Stats, counters []uint64, batches, frames uint64) {
	t.Helper()
	if st.PktsIn != frames || st.ParseErrors != batches {
		t.Fatalf("stats %+v, want PktsIn %d and ParseErrors %d", st, frames, batches)
	}
	if st.PktsOut+st.Dropped != st.PktsIn || st.Dropped != st.ParseErrors {
		t.Fatalf("ledger broken: %+v", st)
	}
	if counted := counters[1] + counters[2] + counters[3]; counted != st.PktsOut {
		t.Fatalf("cells 1..3 sum to %d, want %d", counted, st.PktsOut)
	}
}

// forkRows are the ways a multi-shard ProcessBatch may run the batches of the
// concurrency tests, by the switch's fork threshold: its own (the tests'
// batches are all below ForkFrames, so every partition runs on the caller),
// 0 (every batch forks to the workers), and one between the two batch sizes
// the tests alternate, so shards 1…n−1 move between the caller and their
// workers from one batch to the next.
var forkRows = []struct {
	name       string
	forkFrames int // < 0: the switch's own
}{
	{"inline", -1},
	{"fork", 0},
	{"alternating", 100},
}

// TestControlPlaneConcurrentWithCallerShard is that contract for the shards
// ShardedSwitch.ProcessBatch may run on its caller — shard 0 always, the
// others for a batch below the fork threshold: the control plane may hammer
// shard 0 and the last shard — and take merged snapshots across all shards —
// while it does, with batches of 64 and 128 frames alternating and the output
// taken on every other batch. At one shard the caller is the whole data
// plane: that row is the plain pipeline-lock contract, every control-plane
// accessor against a goroutine sitting in ProcessBatch.
func TestControlPlaneConcurrentWithCallerShard(t *testing.T) {
	type row struct {
		name       string
		shards     int
		forkFrames int
	}
	rows := []row{{"1-shard", 1, -1}}
	for _, r := range forkRows {
		rows = append(rows, row{"4-shard-" + r.name, 4, r.forkFrames})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			prog, std := buildCounterProgram()
			ss, err := NewShardedSwitch(prog, std, tc.shards, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			if tc.forkFrames >= 0 {
				ss.forkFrames = tc.forkFrames
			}
			bindSlash8(t, ss)

			const batches, small, large = 200, 64, 128
			sizes := [2][]FrameIn{contractBatch(small), contractBatch(large)}
			var emitted uint64
			control := append(controlPlane(t, ss, ss.Shard(0)), func() { ss.MergedSnapshot() })
			if tc.shards > 1 {
				control = append(control, controlPlane(t, ss, ss.Shard(tc.shards-1))...)
			}
			hammer(t,
				func() {
					for i := 0; i < batches; i++ {
						batch := sizes[i>>1&1]
						if i&1 == 0 {
							ss.ProcessBatch(batch, nil)
						} else {
							ss.ProcessBatch(batch, func(FrameOut) { emitted++ })
						}
					}
				},
				control...,
			)

			st := ss.Stats()
			checkContractLedger(t, st, ss.MergedSnapshot().Registers["counters"], batches, batches/2*(small+large))
			if emitted != st.PktsOut/2 {
				t.Fatalf("emitted %d frames from half the batches, PktsOut %d", emitted, st.PktsOut)
			}
		})
	}
}

// TestMergedSnapshotConcurrentWithShardedBatch is the same contract one level
// up: MergedSnapshot and per-shard control-plane reads while the sharded
// data plane runs, down each of its paths.
func TestMergedSnapshotConcurrentWithShardedBatch(t *testing.T) {
	for _, tc := range forkRows {
		t.Run(tc.name, func(t *testing.T) { mergedSnapshotConcurrent(t, tc.forkFrames) })
	}
}

func mergedSnapshotConcurrent(t *testing.T, forkFrames int) {
	prog, std := buildShardableProgram()
	ss, err := NewShardedSwitch(prog, std, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if forkFrames >= 0 {
		ss.forkFrames = forkFrames
	}
	ss.SetDigestSink(func(Digest) {})

	const batches, small, large = 200, 64, 128
	const frames = batches / 2 * (small + large)
	const parsed = frames - batches // one parse error per batch
	sizes := [2][]FrameIn{contractBatch(small), contractBatch(large)}
	hammer(t,
		func() {
			for i := 0; i < batches; i++ {
				ss.ProcessBatch(sizes[i&1], nil)
			}
		},
		func() {
			snap := ss.MergedSnapshot()
			var sum uint64
			for _, v := range snap.Registers["counters"] {
				sum += v
			}
			// Each shard is cut between two of its batches, so a merged
			// view never shows more than the data plane has been handed.
			if sum > parsed {
				t.Errorf("merged counters sum to %d, beyond the %d frames offered", sum, parsed)
			}
		},
		func() {
			for i := 0; i < ss.NumShards(); i++ {
				ss.Shard(i).Stats()
				ss.Shard(i).Snapshot()
			}
		},
	)

	if st := ss.Stats(); st.PktsIn != frames || st.PktsOut != parsed {
		t.Fatalf("stats %+v, want PktsIn %d PktsOut %d", st, frames, parsed)
	}
	var sum uint64
	for _, v := range ss.MergedSnapshot().Registers["counters"] {
		sum += v
	}
	if sum != parsed {
		t.Fatalf("merged counters sum to %d, want %d", sum, parsed)
	}
}
