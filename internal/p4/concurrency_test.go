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
func bindSlash8(t *testing.T, sw *Switch) {
	t.Helper()
	if _, err := sw.InsertEntry("bind",
		[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 0, 0)), PrefixLen: 8}}, 0, "count_at", []uint64{1}); err != nil {
		t.Fatal(err)
	}
}

// controlPlane is every control-plane accessor of one counter-program
// switch, one hammer loop each. The entry churn moves 10.0.3/24 between
// cells 2 and 3, so whatever was installed when a frame matched, it counted
// in exactly one of cells 1..3; WriteCell stays away from them.
func controlPlane(t *testing.T, sw *Switch) []func() {
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
		},
		func() {
			id, err := sw.InsertEntry("bind",
				[]MatchValue{{Value: uint64(packet.ParseIP4(10, 0, 3, 0)), PrefixLen: 24}}, 0, "count_at", []uint64{2})
			if err != nil {
				t.Error(err)
				return
			}
			if err := sw.ModifyEntry("bind", id, "count_at", []uint64{3}); err != nil {
				t.Error(err)
			}
			if err := sw.DeleteEntry("bind", id); err != nil {
				t.Error(err)
			}
		},
		func() {
			if _, err := sw.TableEntries("bind"); err != nil {
				t.Error(err)
			}
			if _, err := sw.EntryCount("bind"); err != nil {
				t.Error(err)
			}
		},
	}
}

// checkContractLedger asserts what `batches` contractBatches leave behind,
// whatever the control plane did meanwhile: exact packet counters, and every
// parsed frame counted in exactly one of cells 1..3.
func checkContractLedger(t *testing.T, st Stats, counters []uint64, batches, perBatch uint64) {
	t.Helper()
	if st.PktsIn != batches*perBatch || st.ParseErrors != batches {
		t.Fatalf("stats %+v, want PktsIn %d and ParseErrors %d", st, batches*perBatch, batches)
	}
	if st.PktsOut+st.Dropped != st.PktsIn || st.Dropped != st.ParseErrors {
		t.Fatalf("ledger broken: %+v", st)
	}
	if counted := counters[1] + counters[2] + counters[3]; counted != st.PktsOut {
		t.Fatalf("cells 1..3 sum to %d, want %d", counted, st.PktsOut)
	}
}

// TestControlPlaneConcurrentWithDataPlane is the documented contract under
// the single pipeline lock: every control-plane accessor may run while
// another goroutine sits in ProcessBatch. Run with -race.
func TestControlPlaneConcurrentWithDataPlane(t *testing.T) {
	prog, std := buildCounterProgram()
	sw := mustSwitch(t, prog, std)
	bindSlash8(t, sw)

	const batches, perBatch = 200, 64
	batch := contractBatch(perBatch)
	var emitted uint64
	hammer(t,
		func() {
			for i := 0; i < batches; i++ {
				sw.ProcessBatch(batch, func(FrameOut) { emitted++ })
			}
		},
		controlPlane(t, sw)...,
	)

	st := sw.Stats()
	checkContractLedger(t, st, sw.Snapshot().Registers["counters"], batches, perBatch)
	if emitted != st.PktsOut {
		t.Fatalf("emitted %d frames, PktsOut %d", emitted, st.PktsOut)
	}
}

// TestControlPlaneConcurrentWithCallerShard is that contract for the shard
// that has no goroutine of its own: ShardedSwitch.ProcessBatch runs shard 0
// on its caller, and the control plane may hammer shard 0 — and take merged
// snapshots across all shards — while it does, with the output taken on
// every other batch. At one shard the caller is the whole data plane.
func TestControlPlaneConcurrentWithCallerShard(t *testing.T) {
	for _, n := range []int{1, 4} {
		prog, std := buildCounterProgram()
		ss, err := NewShardedSwitch(prog, std, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		for i := 0; i < n; i++ {
			bindSlash8(t, ss.Shard(i))
		}

		const batches, perBatch = 200, 64
		batch := contractBatch(perBatch)
		var emitted uint64
		hammer(t,
			func() {
				for i := 0; i < batches; i++ {
					if i&1 == 0 {
						ss.ProcessBatch(batch, nil)
					} else {
						ss.ProcessBatch(batch, func(FrameOut) { emitted++ })
					}
				}
			},
			append(controlPlane(t, ss.Shard(0)), func() { ss.MergedSnapshot() })...,
		)

		st := ss.Stats()
		checkContractLedger(t, st, ss.MergedSnapshot().Registers["counters"], batches, perBatch)
		if emitted != st.PktsOut/2 {
			t.Fatalf("%d shards: emitted %d frames from half the batches, PktsOut %d", n, emitted, st.PktsOut)
		}
	}
}

// TestMergedSnapshotConcurrentWithShardedBatch is the same contract one level
// up: MergedSnapshot and per-shard control-plane reads while the sharded
// data plane runs.
func TestMergedSnapshotConcurrentWithShardedBatch(t *testing.T) {
	prog, std := buildShardableProgram()
	ss, err := NewShardedSwitch(prog, std, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ss.SetDigestSink(func(Digest) {})

	const batches, perBatch = 200, 64
	batch := contractBatch(perBatch)
	hammer(t,
		func() {
			for i := 0; i < batches; i++ {
				ss.ProcessBatch(batch, nil)
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
			if sum > batches*(perBatch-1) {
				t.Errorf("merged counters sum to %d, beyond the %d frames offered", sum, batches*(perBatch-1))
			}
		},
		func() {
			for i := 0; i < ss.NumShards(); i++ {
				ss.Shard(i).Stats()
				ss.Shard(i).Snapshot()
			}
		},
	)

	if st := ss.Stats(); st.PktsIn != batches*perBatch || st.PktsOut != batches*(perBatch-1) {
		t.Fatalf("stats %+v, want PktsIn %d PktsOut %d", st, batches*perBatch, batches*(perBatch-1))
	}
	var sum uint64
	for _, v := range ss.MergedSnapshot().Registers["counters"] {
		sum += v
	}
	if sum != batches*(perBatch-1) {
		t.Fatalf("merged counters sum to %d, want %d", sum, batches*(perBatch-1))
	}
}
