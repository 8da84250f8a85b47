package p4

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"stat4/internal/packet"
	"stat4/internal/ring"
)

// ShardedSwitch runs N replicas ("shards") of one program behind an
// RSS-style flow-hash dispatcher, modelling a multi-core or multi-pipeline
// deployment of the same Stat4 program. Every frame is steered by a hash of
// its 5-tuple, so all packets of a flow land on the same shard and per-flow
// register state never races; each shard keeps the data-plane contract of
// Switch, one goroutine at a time, ordered by ProcessBatch's synchronisation.
//
// ProcessBatch partitions the batch by shard and, from ForkFrames frames, is
// a fork-join in which the caller takes part: it hands shards 1…n−1 to their
// worker goroutines, runs shard 0 itself and waits for the workers; a smaller
// batch runs every partition on the caller. Then it reduces outputs in
// shard-index order: for shard 0, 1, … its digests are forwarded to the
// merged mailbox and its frames handed to emit. Until the reduce, a shard
// stages its digests like its frames, in a buffer that grows with the batch,
// so how many frames a batch holds never decides which digests survive: the
// merged mailbox (or the sink) is the one bound. Given the same batch the
// reduction order is deterministic on either path, which is what the
// differential tests pin — outputs are grouped by shard rather than
// interleaved in arrival order, the one observable difference from a single
// switch.
//
// Register state stays sharded; MergedSnapshot combines it on demand the way
// a controller combines reports from independent switches: MergeSum
// registers add cell-wise, MergeDerived registers are zeroed for downstream
// recomputation (see stat4p4.CanonicalizeSnapshot).
type ShardedSwitch struct {
	prog    *Program
	shards  []*Switch
	digests chan Digest

	// forkFrames is ForkFrames, or 0 at one shard; only tests change it.
	forkFrames int

	// Per-batch state, written by ProcessBatch before it publishes the batch
	// to the workers and read by them after the pop.
	parts   [][]FrameIn    // per-shard batch partitions, reused
	outs    []*shardOutBuf // per-shard buffered outputs, reused
	staged  [][]Digest     // per-shard digests, appended by its sink until the reduce
	emits   []func(FrameOut)
	wantOut bool // the batch has an emit: shards buffer their frames

	// The batch handoff to shard i+1: one SPSC descriptor ring plus a parker.
	// Shard 0 has neither — it runs on ProcessBatch's goroutine. ProcessBatch
	// (the single producer) pushes one descriptor per non-empty partition;
	// the worker (the single consumer) spins briefly, then parks. At steady
	// state a handoff costs ring ops only — no channel send/recv.
	rings   []*ring.SPSC
	parkers []*ring.Parker
	done    sync.WaitGroup // batch completion, Done'd by workers per descriptor
	workers sync.WaitGroup // worker goroutines, joined by Close

	sink func(Digest) // direct fleet-level receiver, replaces the merged mailbox

	digestDrops atomic.Uint64 // lost forwarding to the merged mailbox
	closed      bool
}

// closeSeq is the poison descriptor sequence Close pushes to stop a worker.
// A batch descriptor is the zero Desc: it only says "go", the batch itself
// is in the per-batch fields.
const closeSeq = ^uint64(0)

// workerSpins is how many TryPop polls (each yielding the processor) a shard
// worker makes before parking. The budget is deliberately small: the producer
// never yields inside its reduce/partition phase, so one scheduler round trip
// is enough for the next batch to appear, and a handful of polls covers it —
// back-to-back batches are handled with ring ops only, while larger budgets
// just multiply Gosched churn across shards on a loaded host. The park/unpark
// channel machinery only runs when the pipeline actually goes idle.
const workerSpins = 8

// ForkFrames is the batch size from which a multi-shard ProcessBatch forks to
// its workers; a smaller batch runs every partition on the caller, since a
// fork pays a worker wake-up (and often a caller one) per batch for at best
// half the per-frame work. The evidence for forking at all is end to end: on
// bench/blast's bulk-dst24-2s, whose consumer coalesces to ForkFrames, the
// forked batches beat the same batches forced inline in 8 of 10 alternating
// 26 s pairs (pps median 4.55 vs 4.14 M, at 337 vs 286 ns of CPU a packet).
// The value itself is PR 13's break-even; BenchmarkShardedBreakEven, one
// caller timing back-to-back batches, finds no crossing on the reference VM.
const ForkFrames = 4096

// outRef locates one buffered output frame inside a shard's byte buffer.
type outRef struct {
	port     uint16
	off, end int
}

// shardOutBuf collects a shard's output frames during a concurrent batch.
// The bytes are copied out of the shard's deparse scratch (which the next
// packet in the partition overwrites) into one append-only buffer, so a
// steady-state batch allocates nothing once the buffer has grown to the
// high-water mark.
type shardOutBuf struct {
	refs  []outRef
	bytes []byte
}

// layoutPad is one 32-byte slot of code whose only job is layout. The
// set-up code linked between (*Switch).run and FlowKey (Validate and this
// file's constructor) changed size by an odd number of 32-byte slots, which
// would move FlowKey, ProcessBatch, processPacket, table lookup and the
// ingest consumer to the other half of their cache lines; layout alone has
// moved the benchmark's pps by 7–17 %. ROADMAP item 1(d) retires it, with
// ring's layoutPad and Runtime's blank packet.Prefix field.
//
//go:noinline
func layoutPad() {}

// NewShardedSwitch validates the program once and builds n replicas of it,
// each with its own registers, tables and digest staging buffer, plus a
// merged digest mailbox of the given capacity, and starts one worker
// goroutine for each shard but the first (shard 0 runs on ProcessBatch's
// caller, so a 1-shard switch has no goroutines at all). Call Close to stop
// the workers.
func NewShardedSwitch(prog *Program, std StdFields, n, digestBuf int) (*ShardedSwitch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("p4: sharded switch with %d shards", n)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	layoutPad()
	if digestBuf <= 0 {
		digestBuf = 1024
	}
	ss := &ShardedSwitch{
		prog:    prog,
		shards:  make([]*Switch, n),
		digests: make(chan Digest, digestBuf),
		parts:   make([][]FrameIn, n),
		outs:    make([]*shardOutBuf, n),
		staged:  make([][]Digest, n),
		emits:   make([]func(FrameOut), n),
		rings:   make([]*ring.SPSC, n-1),
		parkers: make([]*ring.Parker, n-1),
	}
	if n > 1 {
		ss.forkFrames = ForkFrames
	}
	for i := range ss.shards {
		// The shard's own mailbox goes unused: its sink stages every digest.
		sw := newSwitch(prog, std, 1)
		sw.SetDigestSink(func(d Digest) { ss.staged[i] = append(ss.staged[i], d) })
		ss.shards[i] = sw
		buf := &shardOutBuf{}
		ss.outs[i] = buf
		ss.emits[i] = func(o FrameOut) {
			off := len(buf.bytes)
			buf.bytes = append(buf.bytes, o.Data...)
			buf.refs = append(buf.refs, outRef{port: o.Port, off: off, end: len(buf.bytes)})
		}
	}
	for w := range ss.rings {
		// Capacity 2: one in-flight batch descriptor plus the close token.
		// ProcessBatch waits for completion before the next push, so the ring
		// can never fill from batch traffic alone.
		ss.rings[w] = ring.NewSPSC(2)
		ss.parkers[w] = ring.NewParker()
		ss.workers.Add(1)
		go ss.worker(w)
	}
	return ss, nil
}

// worker runs shard w+1 for every forked batch, popping one descriptor per
// batch from its ring; ProcessBatch's caller runs the shard for smaller
// batches. The shard is driven by one goroutine at a time, ordered by
// ProcessBatch's synchronisation: the atomic ring publish orders the caller's
// partition writes (and any inline run before them) before the pop, and
// done.Done orders the worker's run and outputs back. The worker spins
// (yielding between polls, so co-scheduled shards and producers keep the
// processor) and parks only after the spin budget misses, exiting when it
// pops the close token.
func (ss *ShardedSwitch) worker(w int) {
	defer ss.workers.Done()
	r, p := ss.rings[w], ss.parkers[w]
	var d ring.Desc
	pop := func() bool { return r.TryPop(&d) }
	for {
		if !ring.SpinPops(workerSpins, pop) {
			p.Park(func() bool { return r.Len() > 0 })
			continue // Park may return spuriously; re-poll
		}
		if d.Seq == closeSeq {
			return
		}
		ss.runShard(w+1, ss.parts[w+1])
		ss.done.Done()
	}
}

// runShard runs shard i over its partition of the batch in flight. Output is
// on demand: only a batch with an emit makes the shards deparse and buffer.
func (ss *ShardedSwitch) runShard(i int, part []FrameIn) {
	var emit func(FrameOut)
	if ss.wantOut {
		emit = ss.emits[i]
	}
	ss.shards[i].ProcessBatch(part, emit)
}

// Close stops and joins the shard workers: it pushes a close token through
// every worker's ring, wakes any parked worker, and returns once all worker
// goroutines have exited. The switch must be idle (no ProcessBatch in
// flight). After Close, ProcessBatch panics; ProcessFrame, ProcessPacket and
// the control-plane accessors never involved a worker and stay usable. Close
// is idempotent.
func (ss *ShardedSwitch) Close() {
	if ss.closed {
		return
	}
	ss.closed = true
	for w := range ss.rings {
		for !ss.rings[w].TryPush(ring.Desc{Seq: closeSeq}) {
			runtime.Gosched() // ring holds at most one stale descriptor
		}
		ss.parkers[w].Unpark()
	}
	ss.workers.Wait()
}

// NumShards returns the replica count.
func (ss *ShardedSwitch) NumShards() int { return len(ss.shards) }

// ForkFrames returns the batch size from which ProcessBatch forks: the
// ForkFrames constant, or 0 at one shard, which has nothing to fork. A caller
// that picks its batch size (ingest.Engine) reads it here.
func (ss *ShardedSwitch) ForkFrames() int { return ss.forkFrames }

// Shard returns replica i, for per-shard control-plane work (binding table
// entries, attaching observers, reading registers). The control plane must
// drive every shard identically for MergedSnapshot's entry view (taken from
// shard 0) to be representative. The replica's digest sink belongs to the
// sharded switch: replacing it cuts the shard off from the merged mailbox.
func (ss *ShardedSwitch) Shard(i int) *Switch { return ss.shards[i] }

// Digests returns the merged alert mailbox. ProcessBatch forwards each
// shard's digests into it in shard-index order after the concurrent phase;
// the serial Process* paths forward eagerly.
func (ss *ShardedSwitch) Digests() <-chan Digest { return ss.digests }

// SetDigestSink installs a direct fleet-level digest receiver: digests
// forwarded from the shards are handed to the sink instead of the merged
// mailbox, with no channel operations or capacity drops on the forwarding
// side. The sink runs on whichever goroutine forwards — the caller's for
// every Process* entry point, since forwarding happens in the reduce phase,
// never on a shard worker, and after the shard has released its pipeline
// lock (unlike Switch.SetDigestSink's receiver, it may call control-plane
// methods). Install it before processing traffic; nil detaches and restores
// the mailbox path.
func (ss *ShardedSwitch) SetDigestSink(sink func(Digest)) { ss.sink = sink }

// ShardOf returns the shard index the dispatcher steers a raw frame to.
//
//stat4:datapath
func (ss *ShardedSwitch) ShardOf(data []byte) int {
	return shardIndex(FlowKey(data), len(ss.shards))
}

// ShardOfPacket is ShardOf for an already-decoded packet.
//
//stat4:datapath
func (ss *ShardedSwitch) ShardOfPacket(pkt *packet.Packet) int {
	return shardIndex(PacketFlowKey(pkt), len(ss.shards))
}

// shardIndex maps a flow key onto [0, n) without a modulo (the dispatcher is
// per-packet hardware): the key is hashed once more, and the upper 32 bits
// are scaled by n with a multiply-shift — Lemire's fast range reduction.
//
//stat4:datapath
func shardIndex(key uint64, n int) int {
	h32 := HashValue(0, key) >> 32
	return int((h32 * uint64(n)) >> 32)
}

// FlowKey computes the RSS dispatch key of a raw frame: a hash-mix of the
// IPv4 5-tuple (source, destination, protocol, transport ports) for IPv4
// frames, or of the Ethernet header for everything else. For any frame the
// switch parser accepts, FlowKey(frame) equals PacketFlowKey of the decoded
// packet; frames the parser would reject still get a deterministic key (the
// dispatcher runs before the parser, like a NIC's RSS engine).
//
//stat4:datapath
func FlowKey(data []byte) uint64 {
	if len(data) >= 34 && binary.BigEndian.Uint16(data[12:14]) == uint16(packet.EtherTypeIPv4) {
		vihl := data[14]
		ihl := int(vihl&0x0f) * 4
		if vihl>>4 == 4 && ihl >= 20 && len(data) >= 14+ihl {
			src := binary.BigEndian.Uint32(data[26:30])
			dst := binary.BigEndian.Uint32(data[30:34])
			proto := data[23]
			var ports uint64
			if (proto == uint8(packet.ProtoTCP) || proto == uint8(packet.ProtoUDP)) && len(data) >= 14+ihl+4 {
				ports = uint64(binary.BigEndian.Uint32(data[14+ihl : 14+ihl+4]))
			}
			return tupleKey(src, dst, proto, ports)
		}
	}
	var hdr [14]byte
	copy(hdr[:], data)
	return etherKey(hdr)
}

// PacketFlowKey computes the same dispatch key from a decoded packet, for
// callers (the discrete-event network) that inject packets rather than raw
// frames.
//
//stat4:datapath
func PacketFlowKey(pkt *packet.Packet) uint64 {
	if pkt.HasIPv4 {
		var ports uint64
		switch {
		case pkt.HasTCP:
			ports = uint64(pkt.TCP.SrcPort)<<16 | uint64(pkt.TCP.DstPort)
		case pkt.HasUDP:
			ports = uint64(pkt.UDP.SrcPort)<<16 | uint64(pkt.UDP.DstPort)
		}
		return tupleKey(uint32(pkt.IPv4.Src), uint32(pkt.IPv4.Dst), uint8(pkt.IPv4.Proto), ports)
	}
	var hdr [14]byte
	copy(hdr[0:6], pkt.Eth.Dst[:])
	copy(hdr[6:12], pkt.Eth.Src[:])
	binary.BigEndian.PutUint16(hdr[12:14], uint16(pkt.Eth.Type))
	return etherKey(hdr)
}

// tupleKey mixes the 5-tuple into one key with two hash-engine passes.
//
//stat4:datapath
func tupleKey(src, dst uint32, proto uint8, ports uint64) uint64 {
	k1 := uint64(src)<<32 | uint64(dst)
	k2 := uint64(proto)<<32 | ports
	return HashValue(1, k1) ^ HashValue(2, k2)
}

// etherKey mixes a (zero-padded) Ethernet header into one key.
//
//stat4:datapath
func etherKey(hdr [14]byte) uint64 {
	hi := binary.BigEndian.Uint64(hdr[0:8])
	lo := uint64(binary.BigEndian.Uint32(hdr[8:12]))<<16 | uint64(binary.BigEndian.Uint16(hdr[12:14]))
	return HashValue(1, hi) ^ HashValue(2, lo)
}

// ProcessFrame steers one frame to its shard and runs it there, forwarding
// any digests it raised to the merged mailbox. Like Switch.ProcessFrame the
// returned frames alias shard scratch, valid until the next Process* call on
// this sharded switch.
func (ss *ShardedSwitch) ProcessFrame(tsNs uint64, inPort uint16, data []byte) []FrameOut {
	i := ss.ShardOf(data)
	outs := ss.shards[i].ProcessFrame(tsNs, inPort, data)
	ss.forwardDigests(i)
	return outs
}

// ProcessPacket is ProcessFrame for already-decoded packets.
func (ss *ShardedSwitch) ProcessPacket(tsNs uint64, inPort uint16, pkt *packet.Packet) []FrameOut {
	i := ss.ShardOfPacket(pkt)
	outs := ss.shards[i].ProcessPacket(tsNs, inPort, pkt)
	ss.forwardDigests(i)
	return outs
}

// ProcessBatch partitions the batch by flow hash, runs the shards — from
// ForkFrames() frames concurrently, shard 0 on the calling goroutine and the
// rest on their workers; below that all on the caller, with no wake-up — and
// reduces the results in shard-index order: digests forwarded first, then
// output frames handed to emit (which therefore runs on the caller's
// goroutine only, outside every pipeline lock). Each emitted frame's Data is
// valid only during its emit call. emit may be nil to process for side
// effects only; the shards then skip deparsing altogether. A 1-shard switch
// has nothing to partition and hands the batch to shard 0 as it is.
func (ss *ShardedSwitch) ProcessBatch(batch []FrameIn, emit func(FrameOut)) {
	if ss.closed {
		panic("p4: ProcessBatch on a closed ShardedSwitch")
	}
	n := len(ss.shards)
	ss.wantOut = emit != nil
	if ss.wantOut {
		for _, buf := range ss.outs {
			buf.refs, buf.bytes = buf.refs[:0], buf.bytes[:0]
		}
	}
	fork := len(batch) >= ss.forkFrames
	part0 := batch
	if n > 1 {
		for i := range ss.parts {
			if cap(ss.parts[i]) < len(batch) {
				// One partition may take the whole batch: size it to the
				// largest batch yet rather than let append double it.
				ss.parts[i] = make([]FrameIn, 0, len(batch))
			}
			ss.parts[i] = ss.parts[i][:0]
		}
		for i := range batch {
			s := shardIndex(FlowKey(batch[i].Data), n)
			ss.parts[s] = append(ss.parts[s], batch[i])
		}
		part0 = ss.parts[0]
	}
	if fork {
		for w, r := range ss.rings {
			if len(ss.parts[w+1]) == 0 {
				continue
			}
			ss.done.Add(1)
			for !r.TryPush(ring.Desc{}) {
				runtime.Gosched() // unreachable under the one-batch-in-flight contract
			}
			ss.parkers[w].Unpark()
		}
	}
	ss.runShard(0, part0)
	if fork {
		ss.done.Wait()
	} else {
		for i := 1; i < n; i++ {
			ss.runShard(i, ss.parts[i])
		}
	}
	for i := range ss.shards {
		ss.forwardDigests(i)
		if emit != nil {
			buf := ss.outs[i]
			for _, r := range buf.refs {
				emit(FrameOut{Port: r.port, Data: buf.bytes[r.off:r.end]})
			}
		}
	}
}

// forwardDigests hands shard i's staged digests, in the order it raised
// them, to the sink or, without blocking, to the merged mailbox; digests lost
// to a full merged mailbox are counted like a Switch counts drops on its own.
func (ss *ShardedSwitch) forwardDigests(i int) {
	staged := ss.staged[i]
	for _, d := range staged {
		if ss.sink != nil {
			ss.sink(d)
			continue
		}
		select {
		case ss.digests <- d:
		default:
			ss.digestDrops.Add(1)
		}
	}
	clear(staged) // let the forwarded Values go
	ss.staged[i] = staged[:0]
}

// Stats sums the shard counters; DigestDrops is the digests lost in
// forwarding to the merged mailbox, since a shard stages all of its own.
func (ss *ShardedSwitch) Stats() Stats {
	var total Stats
	for _, sw := range ss.shards {
		s := sw.Stats()
		total.PktsIn += s.PktsIn
		total.PktsOut += s.PktsOut
		total.Dropped += s.Dropped
		total.ParseErrors += s.ParseErrors
		total.RuntimeErrors += s.RuntimeErrors
		total.DigestDrops += s.DigestDrops
		total.Recirculated += s.Recirculated
	}
	total.DigestDrops += ss.digestDrops.Load()
	return total
}

// MergedSnapshot combines the shards' register state into one snapshot as if
// a single switch had seen all the traffic: MergeSum register cells add
// (masked to the declared width), MergeDerived registers read as zero —
// their values are replica-local derivations that consumers recompute from
// the merged sums (stat4p4.CanonicalizeSnapshot does exactly that for
// emitted Stat4 programs). Table entries are shard 0's, under the contract
// that the control plane drives all shards identically.
func (ss *ShardedSwitch) MergedSnapshot() *Snapshot {
	snap := ss.shards[0].Snapshot()
	for name, cells := range snap.Registers {
		if ss.shards[0].regs[name].def.Merge == MergeDerived {
			clear(cells)
		}
	}
	// One pipeline-lock acquisition per further shard: each shard's
	// contribution is a cut between two of its batches.
	for _, sw := range ss.shards[1:] {
		sw.mu.Lock()
		for name, cells := range snap.Registers {
			other := sw.regs[name]
			if other.def.Merge == MergeDerived {
				continue
			}
			for i := range cells {
				cells[i] = (cells[i] + other.cells[i]) & other.mask
			}
		}
		sw.mu.Unlock()
	}
	return snap
}
