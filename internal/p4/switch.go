package p4

import (
	"fmt"
	"sync"
	"time"

	"stat4/internal/packet"
)

// NumHashFunctions is the size of the simulated hash-engine family.
const NumHashFunctions = 4

// hashMuls are the odd multipliers of the multiply-shift hash family. They
// are shared with internal/flowtable (through HashValue) so the reference
// table and the emitted program place keys in identical buckets.
var hashMuls = [NumHashFunctions]uint64{
	0x9e3779b97f4a7c15,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
	0xd6e8feb86659fd93,
}

// HashValue computes the id-th hash of v (before masking). The family index
// wraps with a mask — NumHashFunctions is a power of two — because the hash
// engine runs per packet and a P4 target has no modulo.
//
//stat4:datapath
func HashValue(id int, v uint64) uint64 {
	h := v * hashMuls[id&(NumHashFunctions-1)]
	return h ^ h>>31
}

// Digest is an alert record pushed from the data plane to the control plane,
// the arrow of Figure 1c. Values holds the digested field values in the
// order the OpDigest listed them.
type Digest struct {
	ID     int
	Values []uint64
}

// FrameOut is a frame emitted by the switch on an egress port. Data points
// into the switch's reusable deparse buffer: it is valid until the next
// Process* call on the same switch, like a DMA region handed to the NIC.
// Callers that retain frames (delayed delivery, logging) must copy.
type FrameOut struct {
	Port uint16
	Data []byte
}

// FrameIn is one input frame of a ProcessBatch call.
type FrameIn struct {
	TsNs uint64
	Port uint16
	Data []byte
}

// Deparser rebuilds the outgoing frame from the original packet and the
// final field values. buf is the switch's reusable deparse buffer, passed
// with length zero; implementations append the frame to it and return the
// result, so steady-state deparsing allocates nothing. The default deparser
// forwards the original frame unchanged; applications that synthesise
// replies (like the echo validation app) install their own. Deparse runs
// under the pipeline lock and must not call control-plane methods on the
// same switch. It runs only when the output is taken — ProcessBatch with a
// nil emit forwards and counts packets without deparsing them — so it must
// be free of side effects: everything observable about a packet (registers,
// counters, digests) is settled before Deparse is called.
type Deparser interface {
	Deparse(ctx *Ctx, orig *packet.Packet, buf []byte) []byte
}

type forwardDeparser struct{}

func (forwardDeparser) Deparse(_ *Ctx, orig *packet.Packet, buf []byte) []byte {
	return orig.AppendSerialize(buf)
}

// Ctx is the per-packet execution context: the metadata field values (the
// head of the switch's frame, see compile.go). It is handed to deparsers so
// they can read what the program computed. After the pipeline only the
// standard fields, the recirculation flag with everything the recirculation
// pass reads, and the fields the program declares with SetDeparserReads hold
// a defined value: table entries run specialised traces that drop stores
// nothing reads later, so any other metadata field may hold anything.
type Ctx struct {
	fields []uint64
	sw     *Switch
}

// Get returns a field's current value.
//
//stat4:datapath
func (c *Ctx) Get(id FieldID) uint64 { return c.fields[id] }

// Set sets a field, masked to its declared width. Parsers and deparsers use
// it; program code goes through ops.
//
//stat4:datapath
func (c *Ctx) Set(id FieldID, v uint64) {
	c.fields[id] = v & c.sw.fieldMask[id]
}

// Stats are the switch's global counters.
type Stats struct {
	PktsIn      uint64
	PktsOut     uint64
	Dropped     uint64
	ParseErrors uint64
	// RuntimeErrors counts data-plane faults the simulator tolerates but
	// records: out-of-bounds register accesses.
	RuntimeErrors uint64
	// DigestDrops counts digests lost because the channel to the control
	// plane was full.
	DigestDrops uint64
	// Recirculated counts packets that took the program's recirculation
	// pass — the extra pipeline trips a deployment pays for, so a reader can
	// verify the sampling probability (2^-k of traffic) from the outside.
	Recirculated uint64
}

// Observer receives data-plane instrumentation events. Implementations must
// be allocation-free and cheap — they run on the per-packet hot path, under
// the pipeline lock — and are called by the data plane only: one goroutine
// at a time, ordered by ProcessBatch's synchronisation (a ShardedSwitch shard
// runs on its worker for a forked batch and on the caller for a small one).
// telemetry.SwitchMetrics is the canonical implementation; its recording path
// is integer-only and passes the same stat4-lint gate as the datapath it
// measures.
type Observer interface {
	// PacketCost reports one packet's wall-clock cost in nanoseconds. The
	// cost is sampled, not taxed: the first packet after the observer is
	// attached and every costSampleEvery-th after it are timed, so the two
	// clock reads are paid by 1 packet in 64. A sampled span covers parse +
	// execute, and deparse only when the frame is emitted (not under
	// ProcessBatch with a nil emit). Digest events are exact.
	PacketCost(ns uint64)
	// DigestEmitted reports a digest accepted by the channel.
	DigestEmitted()
	// DigestDropped reports a digest lost to a full channel.
	DigestDropped()
}

// costSampleEvery is the PacketCost sampling period (a power of two).
const costSampleEvery = 64

// Switch interprets a validated Program. The Process* methods (the data
// plane) must be called from one goroutine at a time, ordered by the
// caller's synchronisation — for a shard of a ShardedSwitch, ProcessBatch's;
// table and register control-plane methods may be called concurrently with
// them. Output frames alias internal scratch buffers — see FrameOut.
//
// One mutex, the pipeline lock, guards all mutable state: registers, table
// entries and counters. The data plane takes it once per ProcessFrame or
// ProcessPacket and once per batch in ProcessBatch; every control-plane
// accessor (Register.Read/WriteCell, the entry methods, Stats, Snapshot)
// takes it too, so a control-plane call
// lands between two packets or two batches. Nothing the data plane touches
// per register access or table match is atomic or locked. The price is that
// code the data plane calls back — a digest sink, an Observer, a Deparser,
// ProcessBatch's emit — runs with the lock held and must not call those
// control-plane methods on the same switch.
type Switch struct {
	prog     *Program
	std      StdFields
	regs     map[string]*Register
	tables   map[string]*table
	digests  chan Digest
	sink     func(Digest)
	deparser Deparser

	mu sync.Mutex // the pipeline lock

	// The compiled program (see compile.go): the generic micro-op stream
	// (the main pass starts at pc 0, the recirculation pass at recircPC), the
	// frame its operands and the traces' index, with a reference count per
	// pool slot and an index of the slots by value, and the program's shared
	// specialisation plan (trace.go).
	// fieldMask caches widthMask(Fields[i].Width) for Ctx.Set and the
	// lowering.
	code      []uop
	recircPC  uint32
	frame     []uint64
	poolRefs  []uint32
	poolIdx   map[uint64]uint32 // constant → its pool slot, while referenced
	poolFree  []uint32          // pool slots no trace references
	pinned    uint32            // the pool slots below it are the generic stream's
	plan      *plan
	fieldMask []uint64

	ctr     Stats // guarded by mu
	obs     Observer
	obsTick uint64 // packets seen since the observer was attached

	// Per-packet scratch, reused across packets since the data plane is
	// single-threaded (like a pipeline's PHV): the execution context (its
	// fields are the head of frame), the decoded packet, table-key
	// extraction (sized at compile time from the max key arity), the deparse
	// buffer, and the one-element output slice.
	scratch    Ctx
	pktScratch packet.Packet
	keyScratch []uint64
	deparseBuf []byte
	outScratch [1]FrameOut
}

// newSwitch instantiates the state of a program its caller has already
// validated and compiles the micro-op stream. The digest channel is buffered
// with the given capacity (a bounded mailbox to the controller; 0 picks a
// default of 1024). NewShardedSwitch builds its shards with it.
func newSwitch(prog *Program, std StdFields, digestBuf int) *Switch {
	if digestBuf <= 0 {
		digestBuf = 1024
	}
	sw := &Switch{
		prog:     prog,
		std:      std,
		regs:     make(map[string]*Register, len(prog.Registers)),
		tables:   make(map[string]*table, len(prog.Tables)),
		digests:  make(chan Digest, digestBuf),
		deparser: forwardDeparser{},
	}
	for _, rd := range prog.Registers {
		sw.regs[rd.Name] = newRegister(rd, &sw.mu)
	}
	for _, td := range prog.Tables {
		sw.tables[td.Name] = newTable(td, sw)
	}
	sw.compile()
	return sw
}

// SetDeparser installs a custom deparser.
func (sw *Switch) SetDeparser(d Deparser) { sw.deparser = d }

// SetObserver attaches data-plane instrumentation (nil detaches). Like
// SetDeparser it must be called before processing traffic; it is not
// synchronised with the data plane. With no observer attached the hot path
// pays exactly one nil check per packet. The observer's methods run under
// the pipeline lock and must not call control-plane methods on this switch.
func (sw *Switch) SetObserver(o Observer) { sw.obs, sw.obsTick = o, 0 }

// SetDigestSink installs a direct digest receiver: with a sink attached,
// sendDigest calls it synchronously from the data-plane goroutine instead of
// going through the buffered channel, so a caller that drains digests after
// every Process* call (the discrete-event network does) pays no channel
// operations on the hot path. A sink never drops: the bounded-mailbox
// semantics belong to the channel, which a sink replaces. Like SetObserver it
// must be installed before processing traffic; digests emitted before the
// sink was attached stay in the channel and must be drained from there. nil
// detaches and restores the channel path. The sink runs under the pipeline
// lock: it must not call control-plane methods on this switch (buffer the
// digest and act on it after the Process* call returns).
func (sw *Switch) SetDigestSink(sink func(Digest)) { sw.sink = sink }

// Register returns a register array by name for control-plane access.
func (sw *Switch) Register(name string) (*Register, error) {
	r, ok := sw.regs[name]
	if !ok {
		return nil, fmt.Errorf("p4: no register %q", name)
	}
	return r, nil
}

// InsertEntry installs a table entry at runtime and returns its ID.
func (sw *Switch) InsertEntry(tbl string, match []MatchValue, prio int, action string, args []uint64) (EntryID, error) {
	t, ok := sw.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return t.insert(match, prio, action, args)
}

// DeleteEntry removes an entry.
func (sw *Switch) DeleteEntry(tbl string, id EntryID) error {
	t, ok := sw.tables[tbl]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return t.remove(id)
}

// Stats returns a snapshot of the switch counters.
func (sw *Switch) Stats() Stats {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.ctr
}

// ProcessFrame runs one frame through the pipeline: parse, execute the
// control flow, deparse. tsNs is the ingress timestamp in nanoseconds (the
// simulator's virtual clock). Unparseable frames are dropped and counted,
// like a real parser's reject state. The returned frames alias switch
// scratch and stay valid until the next Process* call.
func (sw *Switch) ProcessFrame(tsNs uint64, inPort uint16, data []byte) []FrameOut {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.processFrame(tsNs, inPort, data, true)
}

// ProcessPacket is ProcessFrame for callers that already hold a decoded
// packet; it avoids the serialize/parse round trip in tight simulation
// loops. The packet must not be mutated while the call runs.
func (sw *Switch) ProcessPacket(tsNs uint64, inPort uint16, pkt *packet.Packet) []FrameOut {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.admit() {
		return sw.processPacket(tsNs, inPort, pkt, true)
	}
	start := time.Now()
	outs := sw.processPacket(tsNs, inPort, pkt, true)
	sw.obs.PacketCost(uint64(time.Since(start)))
	return outs
}

// ProcessBatch runs a batch of frames through the pipeline in order, calling
// emit for every output frame — the entry point replay and benchmark loops
// drive. The pipeline lock is taken once for the whole batch, so emit runs
// under it (see Switch). emit may be nil to process for side effects only:
// output is on demand, so packets are then forwarded and counted exactly as
// with an emit, but never deparsed. Each emitted frame's Data is valid only
// during its emit call (the buffer is reused for the next frame in the
// batch).
func (sw *Switch) ProcessBatch(batch []FrameIn, emit func(FrameOut)) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	out := emit != nil
	for i := range batch {
		f := &batch[i]
		for _, o := range sw.processFrame(f.TsNs, f.Port, f.Data, out) {
			emit(o)
		}
	}
}

// admit counts one packet in and reports whether the observer times it: the
// first packet after SetObserver and every costSampleEvery-th after it.
func (sw *Switch) admit() (timed bool) {
	sw.ctr.PktsIn++
	if sw.obs == nil {
		return false
	}
	tick := sw.obsTick
	sw.obsTick++
	return tick&(costSampleEvery-1) == 0
}

// processFrame is ProcessFrame with the pipeline lock held; a sampled
// packet's span covers parse + execute, and deparse when out is set.
func (sw *Switch) processFrame(tsNs uint64, inPort uint16, data []byte, out bool) []FrameOut {
	if !sw.admit() {
		return sw.parseAndProcess(tsNs, inPort, data, out)
	}
	start := time.Now()
	outs := sw.parseAndProcess(tsNs, inPort, data, out)
	sw.obs.PacketCost(uint64(time.Since(start)))
	return outs
}

func (sw *Switch) parseAndProcess(tsNs uint64, inPort uint16, data []byte, out bool) []FrameOut {
	if err := packet.ParseInto(&sw.pktScratch, data); err != nil {
		sw.ctr.ParseErrors++
		sw.ctr.Dropped++
		return nil
	}
	return sw.processPacket(tsNs, inPort, &sw.pktScratch, out)
}

// processPacket executes the program over one decoded packet and settles its
// counters; a forwarded packet is deparsed only when the caller takes the
// output (out), otherwise nil is returned for it as for a dropped one.
func (sw *Switch) processPacket(tsNs uint64, inPort uint16, pkt *packet.Packet, out bool) []FrameOut {
	ctx := &sw.scratch
	fields := ctx.fields
	clear(fields)
	sw.std.extract(ctx, tsNs, inPort, pkt)
	sw.run(0)
	// Recirculation: when the main pass raised the flag, the packet makes
	// exactly one extra trip. The flag clears before the pass runs, so the
	// pass cannot re-request it — the bound is structural, mirroring a
	// deployment that budgets one recirculation (the pisa-3pass model).
	if sw.prog.hasRecirc && fields[sw.prog.RecircField] != 0 {
		fields[sw.prog.RecircField] = 0
		sw.ctr.Recirculated++
		sw.run(sw.recircPC)
	}
	if fields[sw.std.Drop] != 0 {
		sw.ctr.Dropped++
		return nil
	}
	sw.ctr.PktsOut++
	if !out {
		return nil
	}
	frame := sw.deparser.Deparse(ctx, pkt, sw.deparseBuf[:0])
	sw.deparseBuf = frame[:0]
	sw.outScratch[0] = FrameOut{Port: uint16(fields[sw.std.Egress]), Data: frame}
	return sw.outScratch[:]
}

// sendDigest pushes an alert onto the bounded mailbox to the control plane,
// counting (and reporting to the observer) the accept/drop outcome. The
// tree-walking reference's OpDigest funnels through it too, so emit/drop
// accounting cannot diverge between the two.
//
//stat4:datapath
func (sw *Switch) sendDigest(d Digest) {
	if sw.sink != nil {
		sw.sink(d)
		if sw.obs != nil {
			sw.obs.DigestEmitted()
		}
		return
	}
	select {
	case sw.digests <- d:
		if sw.obs != nil {
			sw.obs.DigestEmitted()
		}
	default:
		sw.ctr.DigestDrops++
		if sw.obs != nil {
			sw.obs.DigestDropped()
		}
	}
}
