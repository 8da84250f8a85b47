package p4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"stat4/internal/packet"
)

// buildShardableProgram is the differential workload for the sharded tests:
// it hashes the IPv4 destination into a 64-cell counter register, increments
// it, digests (idx, count) once a counter crosses a threshold, and reflects
// every frame to its ingress port. All of its state is additive (MergeSum),
// so a merged snapshot must be byte-identical to a serial switch's.
func buildShardableProgram() (*Program, StdFields) {
	p := NewProgram("test-sharded")
	std := DeclareStdFields(p)
	idx := p.AddField("meta.idx", 32)
	tmp := p.AddField("meta.tmp", 64)

	p.AddRegister("counters", 64, 64)

	p.AddAction(NewAction("count", 0,
		Hash(idx, 3, F(std.IPv4Dst), 63),
		RegRead(tmp, "counters", F(idx)),
		Add(tmp, F(tmp), C(1)),
		RegWrite("counters", F(idx), F(tmp)),
	))
	p.AddAction(NewAction("alert", 0, EmitDigest(7, idx, tmp)))
	p.AddAction(NewAction("reflect", 0, SetEgress(F(std.InPort))))

	p.Control = []Stmt{
		If(Cond{A: F(std.IPv4Valid), Op: CmpEq, B: C(1)},
			Call("count"),
			If(Cond{A: F(tmp), Op: CmpGt, B: C(3)},
				Call("alert"),
			),
		),
		Call("reflect"),
	}
	return p, std
}

// savedOut is a retained copy of an emitted frame.
type savedOut struct {
	Port uint16
	Data []byte
}

func collectOuts(dst *[]savedOut) func(FrameOut) {
	return func(o FrameOut) {
		*dst = append(*dst, savedOut{Port: o.Port, Data: append([]byte(nil), o.Data...)})
	}
}

func drainDigestChan(ch <-chan Digest) []Digest {
	var ds []Digest
	for {
		select {
		case d := <-ch:
			ds = append(ds, d)
		default:
			return ds
		}
	}
}

// framesFromBytes decodes a fuzz byte string into a deterministic sequence
// of UDP frames (7 bytes each: dst octets, source low octet, ports).
func framesFromBytes(data []byte) []FrameIn {
	var batch []FrameIn
	for i := 0; i+7 <= len(data); i += 7 {
		b := data[i : i+7]
		dst := packet.ParseIP4(10, b[0], b[1], b[2])
		src := packet.ParseIP4(192, 0, 2, b[3])
		sport := binary.BigEndian.Uint16(b[4:6])
		frame := packet.NewUDPFrame(src, dst, sport, uint16(b[6]), int(b[6]&15)).Serialize()
		batch = append(batch, FrameIn{TsNs: uint64(i) * 100, Port: uint16(b[0] & 3), Data: frame})
	}
	return batch
}

// checkShardEquivalence is the differential harness shared by the table
// tests and FuzzShardEquivalence: it replays the same frame sequence through
//
//	(a) one serial switch (the reference),
//	(b) a ShardedSwitch with n shards, batched, and
//	(c) n independent serial switches, each fed shard i's partition —
//	    the definition of what the concurrent fan-out must reproduce,
//
// and asserts (b)'s outputs and digests are byte-identical to (c)'s
// concatenated in shard-index order, and (b)'s merged snapshot and summed
// stats are byte-identical to (a)'s.
func checkShardEquivalence(t *testing.T, frames []FrameIn, n, batchSize int) {
	t.Helper()
	prog, std := buildShardableProgram()

	// Every mailbox — the serial switches' own and the sharded one's merged
	// mailbox — holds a whole batch's digests (the program alerts on most
	// frames), so no side drops what another keeps.
	digestBuf := 2 * batchSize
	serial, err := buildSwitch(prog, std, digestBuf)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedSwitch(prog, std, n, digestBuf)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	replicas := make([]*Switch, n)
	for i := range replicas {
		if replicas[i], err = buildSwitch(prog, std, digestBuf); err != nil {
			t.Fatal(err)
		}
	}

	for start := 0; start < len(frames); start += batchSize {
		end := start + batchSize
		if end > len(frames) {
			end = len(frames)
		}
		batch := frames[start:end]

		var serialOuts []savedOut
		serial.ProcessBatch(batch, collectOuts(&serialOuts))
		drainDigestChan(serial.Digests())

		var shardedOuts []savedOut
		ss.ProcessBatch(batch, collectOuts(&shardedOuts))
		shardedDigests := drainDigestChan(ss.Digests())

		// Reference reduction: each shard's partition replayed serially on
		// its own replica, results concatenated in shard-index order.
		var wantOuts []savedOut
		var wantDigests []Digest
		for i := 0; i < n; i++ {
			for _, f := range batch {
				if ss.ShardOf(f.Data) != i {
					continue
				}
				replicas[i].ProcessBatch([]FrameIn{f}, collectOuts(&wantOuts))
			}
			wantDigests = append(wantDigests, drainDigestChan(replicas[i].Digests())...)
		}

		if len(shardedOuts) != len(wantOuts) {
			t.Fatalf("batch at %d: sharded emitted %d frames, per-shard serial %d", start, len(shardedOuts), len(wantOuts))
		}
		for i := range wantOuts {
			if shardedOuts[i].Port != wantOuts[i].Port || !bytes.Equal(shardedOuts[i].Data, wantOuts[i].Data) {
				t.Fatalf("batch at %d: output %d differs", start, i)
			}
		}
		if !reflect.DeepEqual(shardedDigests, wantDigests) {
			t.Fatalf("batch at %d: digests differ: sharded %v, want %v", start, shardedDigests, wantDigests)
		}
		// The serial reference forwards every frame exactly once regardless
		// of register state, so output counts match it too. (Its digest
		// stream legitimately differs: the alert predicate reads counters
		// that sharding splits, so a sharded deployment alerts per shard —
		// the per-shard replay above is the digest reference.)
		if len(serialOuts) != len(shardedOuts) {
			t.Fatalf("batch at %d: sharded emitted %d frames, serial %d", start, len(shardedOuts), len(serialOuts))
		}
	}

	merged := ss.MergedSnapshot()
	want := serial.Snapshot()
	if !reflect.DeepEqual(merged.Registers, want.Registers) {
		t.Fatalf("merged registers differ from serial:\nmerged %v\nserial %v", merged.Registers, want.Registers)
	}
	sStats, gStats := serial.Stats(), ss.Stats()
	if sStats != gStats {
		t.Fatalf("summed sharded stats %+v differ from serial %+v", gStats, sStats)
	}
	// Per-shard state must equal the matching replica's, proving the
	// concurrent fan-out added nothing over serial per-partition execution.
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(ss.Shard(i).Snapshot().Registers, replicas[i].Snapshot().Registers) {
			t.Fatalf("shard %d registers differ from its serial replica", i)
		}
	}
}

// TestShardedSwitchValidatesOnce pins the sharded constructor's set-up
// work: it validates the program once for all its shards and refuses an
// invalid program before building any.
func TestShardedSwitchValidatesOnce(t *testing.T) {
	prog, std := buildShardableProgram()
	ss, err := NewShardedSwitch(prog, std, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if n := Validations(prog); n != 1 {
		t.Fatalf("a 4-shard switch validated its program %d times, want 1", n)
	}

	bad := NewProgram("bad")
	badStd := DeclareStdFields(bad)
	bad.Control = []Stmt{Apply("ghost")}
	if _, err := NewShardedSwitch(bad, badStd, 4, 0); !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("invalid program: err = %v, want ErrInvalidProgram", err)
	}
}

func TestShardedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 7*600)
	rng.Read(data)
	frames := framesFromBytes(data)
	for _, n := range []int{1, 2, 3, 4, 8} {
		checkShardEquivalence(t, frames, n, 64)
	}
}

// FuzzShardEquivalence mirrors FuzzDifferential for the sharded layer:
// arbitrary packet batches, batch sizes and shard counts, with the
// ShardedSwitch's ordered reduction and merged snapshot pinned byte-identical
// to serial per-partition execution of the compiled path. The batch size
// ranges over both sides of ForkFrames, so the fuzzer drives the inline and
// the forked path; a short input is replayed cyclically to fill one batch.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(1), []byte("seed-corpus-entry-with-some-length-to-it"))
	f.Add(uint8(1), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(uint8(255), uint8(127), bytes.Repeat([]byte{9, 12, 200}, 40))
	f.Add(uint8(2), uint8(128), bytes.Repeat([]byte{7, 1, 99, 4, 0}, 30))
	f.Fuzz(func(t *testing.T, shardsByte, sizeByte uint8, data []byte) {
		n := 1 + int(shardsByte)%8
		size := 1 + int(sizeByte)*ForkFrames/128 // 1 … 2·ForkFrames−31
		frames := framesFromBytes(data)
		if len(frames) == 0 {
			t.Skip()
		}
		for base := frames; len(frames) < size; {
			frames = append(frames, base[:min(len(base), size-len(frames))]...)
		}
		checkShardEquivalence(t, frames, n, size)
	})
}

// TestShardedInlineMatchesFork pins the two ways ProcessBatch runs a
// multi-shard batch — every partition on the caller, or forked to the
// workers — to one result: the same batches, forced down each path, leave
// byte-identical per-shard registers and Stats, forward the same digests in
// the same order and emit the same frames, at batch sizes on both sides of
// ForkFrames, with output taken and not.
func TestShardedInlineMatchesFork(t *testing.T) {
	prog, std := buildShardableProgram()
	rng := rand.New(rand.NewSource(25))
	data := make([]byte, 7*3*ForkFrames)
	rng.Read(data)
	frames := framesFromBytes(data)
	for _, n := range []int{1, 2, 4, 8} {
		for _, emitted := range []bool{false, true} {
			// The merged mailbox must hold a whole batch of digests: the
			// program alerts on most frames.
			inline, err := NewShardedSwitch(prog, std, n, 4*ForkFrames)
			if err != nil {
				t.Fatal(err)
			}
			fork, err := NewShardedSwitch(prog, std, n, 4*ForkFrames)
			if err != nil {
				t.Fatal(err)
			}
			inline.forkFrames, fork.forkFrames = len(frames)+1, 0
			for _, size := range []int{1, ForkFrames - 1, ForkFrames, 3 * ForkFrames} {
				var outs [2][]savedOut
				var digests [2][]Digest
				for i, ss := range []*ShardedSwitch{inline, fork} {
					var emit func(FrameOut)
					if emitted {
						emit = collectOuts(&outs[i])
					}
					ss.ProcessBatch(frames[:size], emit)
					digests[i] = drainDigestChan(ss.Digests())
				}
				if !reflect.DeepEqual(outs[0], outs[1]) {
					t.Fatalf("%d shards, %d frames, emit %v: inline emitted %d frames, fork %d, or they differ",
						n, size, emitted, len(outs[0]), len(outs[1]))
				}
				if emitted != (len(outs[0]) == size) {
					t.Fatalf("%d shards, %d frames, emit %v: %d frames emitted", n, size, emitted, len(outs[0]))
				}
				if !reflect.DeepEqual(digests[0], digests[1]) {
					t.Fatalf("%d shards, %d frames, emit %v: inline forwarded %d digests, fork %d, or their order differs",
						n, size, emitted, len(digests[0]), len(digests[1]))
				}
				if size > 1 && len(digests[0]) == 0 {
					t.Fatalf("%d shards, %d frames: no digests to compare", n, size)
				}
			}
			for i := 0; i < n; i++ {
				a, b := inline.Shard(i), fork.Shard(i)
				if !reflect.DeepEqual(a.Snapshot().Registers, b.Snapshot().Registers) {
					t.Fatalf("%d shards, emit %v: shard %d registers differ between inline and fork", n, emitted, i)
				}
				if a.Stats() != b.Stats() {
					t.Fatalf("%d shards, emit %v: shard %d stats %+v inline, %+v fork", n, emitted, i, a.Stats(), b.Stats())
				}
			}
			inline.Close()
			fork.Close()
		}
	}
}

// TestShardedDigestsBoundOnlyByMergedMailbox pins where a sharded switch may
// lose digests: only in forwarding to the merged mailbox. A shard stages what
// it raises until the reduce however large its partition, so on either path a
// 3·ForkFrames batch that alerts on most frames reaches a sink whole, and
// without a sink a 16-digest merged mailbox keeps 16 and counts the rest.
func TestShardedDigestsBoundOnlyByMergedMailbox(t *testing.T) {
	prog, std := buildShardableProgram()
	rng := rand.New(rand.NewSource(26))
	data := make([]byte, 7*3*ForkFrames)
	rng.Read(data)
	frames := framesFromBytes(data)
	const n, mailbox = 2, 16

	want := 0
	for i := 0; i < n; i++ {
		replica, err := buildSwitch(prog, std, 2*len(frames))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if shardIndex(FlowKey(f.Data), n) == i {
				replica.ProcessBatch([]FrameIn{f}, nil)
			}
		}
		want += len(replica.Digests())
	}
	if want <= 2*1024 {
		t.Fatalf("%d digests: too few to overflow a default shard mailbox", want)
	}
	for _, forkFrames := range []int{len(frames) + 1, 0} {
		for _, sinked := range []bool{true, false} {
			ss, err := NewShardedSwitch(prog, std, n, mailbox)
			if err != nil {
				t.Fatal(err)
			}
			ss.forkFrames = forkFrames
			got := 0
			if sinked {
				ss.SetDigestSink(func(Digest) { got++ })
			}
			ss.ProcessBatch(frames, nil)
			if !sinked {
				got = len(ss.Digests())
			}
			if drops := ss.Stats().DigestDrops; got+int(drops) != want || sinked != (drops == 0) {
				t.Fatalf("fork from %d, sink %v: %d delivered + %d dropped, want %d raised",
					forkFrames, sinked, got, drops, want)
			}
			if !sinked && got != mailbox {
				t.Fatalf("fork from %d: merged mailbox holds %d, want %d", forkFrames, got, mailbox)
			}
			ss.Close()
		}
	}
}

func TestFlowKeyMatchesPacketFlowKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pkts []*packet.Packet
	for i := 0; i < 200; i++ {
		dst := packet.ParseIP4(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		src := packet.ParseIP4(192, 0, 2, byte(rng.Intn(256)))
		if rng.Intn(2) == 0 {
			pkts = append(pkts, packet.NewUDPFrame(src, dst, uint16(rng.Intn(65536)), uint16(rng.Intn(65536)), rng.Intn(40)))
		} else {
			pkts = append(pkts, packet.NewTCPFrame(src, dst, uint16(rng.Intn(65536)), uint16(rng.Intn(65536)), packet.FlagSYN))
		}
	}
	pkts = append(pkts, packet.NewEchoFrame(packet.MAC{1, 2, 3}, packet.MAC{4, 5, 6}, -17))
	for i, pkt := range pkts {
		frame := pkt.Serialize()
		parsed, err := packet.Parse(frame)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if FlowKey(frame) != PacketFlowKey(parsed) {
			t.Fatalf("packet %d: FlowKey %x != PacketFlowKey %x", i, FlowKey(frame), PacketFlowKey(parsed))
		}
	}
	// Truncated and non-IPv4 frames still get deterministic keys.
	for _, raw := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xff}, 13), bytes.Repeat([]byte{3}, 20)} {
		if FlowKey(raw) != FlowKey(append([]byte(nil), raw...)) {
			t.Fatal("FlowKey not deterministic on odd input")
		}
	}
}

func TestShardOfFlowAffinityAndSpread(t *testing.T) {
	prog, std := buildShardableProgram()
	ss, err := NewShardedSwitch(prog, std, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	seen := make(map[int]int)
	for i := 0; i < 1024; i++ {
		dst := packet.ParseIP4(10, byte(i>>8), byte(i), 1)
		frame := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 4000, 80, 0).Serialize()
		s := ss.ShardOf(frame)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		if again := ss.ShardOf(frame); again != s {
			t.Fatalf("flow moved shards: %d then %d", s, again)
		}
		seen[s]++
	}
	for s := 0; s < 4; s++ {
		if seen[s] == 0 {
			t.Fatalf("shard %d received no flows out of 1024", s)
		}
	}
}

func TestShardedProcessFrameAndPacket(t *testing.T) {
	prog, std := buildShardableProgram()
	ss, err := NewShardedSwitch(prog, std, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	serial := mustSwitch(t, prog, std)

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		dst := packet.ParseIP4(10, 0, byte(rng.Intn(8)), byte(rng.Intn(4)))
		pkt := packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), dst, 1000, 80, 0)
		frame := pkt.Serialize()
		if ss.ShardOf(frame) != ss.ShardOfPacket(pkt) {
			t.Fatal("raw and decoded dispatch disagree")
		}
		var out []FrameOut
		if i%2 == 0 {
			out = ss.ProcessFrame(uint64(i), 2, frame)
		} else {
			out = ss.ProcessPacket(uint64(i), 2, pkt)
		}
		wantOut := serial.ProcessFrame(uint64(i), 2, frame)
		if len(out) != len(wantOut) || out[0].Port != wantOut[0].Port {
			t.Fatalf("frame %d: serial-dispatch output differs", i)
		}
	}
	drainDigestChan(ss.Digests())
	drainDigestChan(serial.Digests())
	if ss.Stats().PktsIn != 500 || ss.Stats().PktsIn != serial.Stats().PktsIn {
		t.Fatalf("sharded stats %+v, serial %+v", ss.Stats(), serial.Stats())
	}
	if !reflect.DeepEqual(ss.MergedSnapshot().Registers, serial.Snapshot().Registers) {
		t.Fatal("merged registers differ from serial after serial-dispatch traffic")
	}
}

func TestMergedSnapshotZeroesDerived(t *testing.T) {
	prog, std := buildShardableProgram()
	prog.AddRegister("scratch.sd", 4, 64)
	prog.SetRegisterMerge("scratch.sd", MergeDerived)
	ss, err := NewShardedSwitch(prog, std, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for i := 0; i < 2; i++ {
		r, err := ss.Shard(i).Register("scratch.sd")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WriteCell(1, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	merged := ss.MergedSnapshot()
	for i, v := range merged.Registers["scratch.sd"] {
		if v != 0 {
			t.Fatalf("derived register cell %d = %d in merged snapshot, want 0", i, v)
		}
	}
	// The per-shard values themselves are untouched.
	if got := ss.Shard(0).Snapshot().Registers["scratch.sd"][1]; got != 100 {
		t.Fatalf("shard 0 derived cell = %d, want 100", got)
	}
}

func TestNewShardedSwitchRejectsBadCount(t *testing.T) {
	prog, std := buildShardableProgram()
	if _, err := NewShardedSwitch(prog, std, 0, 0); err == nil {
		t.Fatal("expected error for 0 shards")
	}
}

// TestShardedCloseJoinsWorkers pins the goroutine ledger of the fork-join:
// n shards run on n−1 workers (shard 0 is the caller's, so a 1-shard switch
// starts none), and Close parks and joins them — after Close returns the
// goroutine count is back to its pre-construction level (a regression test
// for worker leaks). Close is idempotent, the entry points that never
// involved a worker stay usable, and a late ProcessBatch fails fast instead
// of hanging on workers that no longer exist.
func TestShardedCloseJoinsWorkers(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		prog, std := buildShardableProgram()
		// Let goroutines of earlier tests finish exiting, so the exact
		// count below is not taken against a baseline that is still falling.
		baseline := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			runtime.Gosched()
			if g := runtime.NumGoroutine(); g < baseline {
				baseline, i = g, 0
			}
		}
		ss, err := NewShardedSwitch(prog, std, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g := runtime.NumGoroutine(); g != baseline+n-1 {
			t.Fatalf("%d shards: expected %d+%d goroutines with workers running, have %d", n, baseline, n-1, g)
		}
		// Run a batch so some workers have cycled through the pop/park loop,
		// and give them time to park — Close must wake parked workers too.
		frames := framesFromBytes(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 32))
		ss.ProcessBatch(frames, nil)
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		ss.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%d shards: goroutines did not return to baseline %d after Close: %d",
					n, baseline, runtime.NumGoroutine())
			}
			runtime.Gosched()
		}
		ss.Close() // idempotent

		if outs := ss.ProcessFrame(0, 1, frames[0].Data); len(outs) != 1 {
			t.Fatalf("%d shards: ProcessFrame after Close emitted %d frames, want 1", n, len(outs))
		}
		if st := ss.Stats(); st.PktsIn != uint64(len(frames))+1 {
			t.Fatalf("%d shards: PktsIn %d after Close, want %d", n, st.PktsIn, len(frames)+1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d shards: ProcessBatch after Close did not panic", n)
				}
			}()
			ss.ProcessBatch(frames[:1], nil)
		}()
	}
}
