package netem

import (
	"stat4/internal/p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// portLink is one connected egress link.
type portLink struct {
	delay   uint64
	deliver func(now uint64, data []byte)
}

// SwitchNode runs a p4.ShardedSwitch — n ≥ 1 flow-hash shards of one
// program, a single switch being n = 1 — inside the simulation: injected
// packets are dispatched to their shard at their timestamps, output frames
// are delivered to connected ports after their link delay, and digests from
// every shard reach the controller handler after the control-channel delay —
// the push arrow of Figure 1c. The engine is typed wheel events throughout:
// a frame pool, a batched stream pump and a direct digest sink.
//
// Attach-handler-before-inject contract: create the node before the switch
// processes any traffic — digests forwarded earlier sit in the switch's
// merged mailbox, which the node never reads. Digests are drained from the
// switch after every processed packet, so OnDigest (and any Connect
// receivers) must be in place before the first Inject/InjectFrame/
// InjectStream call. Digests drained while OnDigest is nil are dropped —
// counted by DroppedDigests and the telemetry snapshot, never silently — and
// frames emitted on ports with no connected link are likewise counted by
// UnroutedFrames.
//
// The simulator stays single-threaded: shard workers only run during
// ProcessBatch, which this node never uses; each packet is processed
// synchronously on its shard. Metrics here are chassis-level: one control
// channel and one set of links serve all shards, so the node meters them as
// a unit (per-shard datapath metrics attach to the shards' switch observers
// instead). All shards share the port space, as pipelines share a chassis.
type SwitchNode struct {
	Sim *Sim
	SW  *p4.ShardedSwitch

	// CtrlDelay is the one-way switch→controller latency.
	CtrlDelay uint64
	// OnDigest receives each digest at its controller arrival time. Set it
	// before injecting traffic (see the contract above).
	OnDigest func(now uint64, d p4.Digest)

	// Metrics, when set, records the node's channel observables: frame
	// inject→deliver latency, digest control-channel latency, digest-queue
	// occupancy at drain, and the drop counters.
	Metrics *telemetry.NodeMetrics

	ports map[uint16]*portLink

	// sinkBuf accumulates digests handed over synchronously by the switch's
	// digest sink during Process* calls.
	sinkBuf []p4.Digest

	// pool holds link-lifetime frame buffers: grabbed when a frame is
	// scheduled, returned after its deliver callback finishes.
	pool [][]byte

	droppedDigests uint64
	unroutedFrames uint64
}

// NewSwitchNode wires a switch into a simulation. It installs a fleet-level
// digest sink on the switch, so digests skip the merged mailbox and are
// forwarded as typed events; anything else reading sw.Digests() directly
// will no longer see them.
func NewSwitchNode(sim *Sim, sw *p4.ShardedSwitch, ctrlDelay uint64) *SwitchNode {
	n := &SwitchNode{Sim: sim, SW: sw, CtrlDelay: ctrlDelay, ports: make(map[uint16]*portLink)}
	sw.SetDigestSink(n.digestSink)
	return n
}

// digestSink receives digests synchronously from the switch's reduce
// during Process* calls; route moves them onto the control channel after the
// call returns.
func (n *SwitchNode) digestSink(d p4.Digest) { n.sinkBuf = append(n.sinkBuf, d) }

// Connect attaches a receiver to an egress port over a link with the given
// delay. Delivered frame bytes are only valid until deliver returns — the
// buffer goes back to the node's pool (see the package doc).
func (n *SwitchNode) Connect(port uint16, delay uint64, deliver func(now uint64, data []byte)) {
	n.ports[port] = &portLink{delay: delay, deliver: deliver}
}

// DroppedDigests returns how many digests were drained while no OnDigest
// handler was attached. A nonzero value almost always means a handler was
// attached after traffic had already been injected.
func (n *SwitchNode) DroppedDigests() uint64 { return n.droppedDigests }

// UnroutedFrames returns how many output frames were discarded because
// their egress port had no connected link.
func (n *SwitchNode) UnroutedFrames() uint64 { return n.unroutedFrames }

// Inject schedules one packet for processing at ts on the given ingress
// port.
func (n *SwitchNode) Inject(ts uint64, port uint16, pkt traffic.Pkt) {
	n.Sim.schedulePacket(n, ts, port, pkt.Frame)
}

// InjectFrame processes raw frame bytes immediately (at the current virtual
// time) on the given ingress port, routing outputs over connected links —
// what a frame arriving on a wire from another node does.
func (n *SwitchNode) InjectFrame(port uint16, data []byte) {
	n.route(n.SW.ProcessFrame(n.Sim.Now(), port, data))
}

// InjectStream feeds a whole traffic stream through the switch lazily, so
// streams of millions of packets don't materialise in memory. One pump
// event carries the stream and processes runs of packets in-line while no
// other event is due between them — the clock still advances to every
// packet's timestamp, and a packet whose timestamp ties another event keeps
// the order per-packet events would have had, because the pump reschedules
// at exactly the instant (and with a later sequence number than any event
// scheduled while processing) that an event-per-packet engine would have
// scheduled that packet's own event.
func (n *SwitchNode) InjectStream(st traffic.Stream, port uint16) {
	p, ok := st.Next()
	if !ok {
		return
	}
	n.Sim.schedulePump(n, st, port, p)
}

// pumpRun is the evPump handler: process the pending packet at the current
// time, then keep pulling packets while the next one is due strictly before
// every other pending event and within the active RunUntil deadline.
func (n *SwitchNode) pumpRun(st traffic.Stream, port uint16, p traffic.Pkt) {
	s := n.Sim
	for {
		n.route(n.SW.ProcessPacket(s.now, port, p.Frame))
		next, ok := st.Next()
		if !ok {
			return
		}
		if next.TsNs < s.now {
			next.TsNs = s.now
		}
		if next.TsNs > s.deadline || next.TsNs >= s.nextPendingLB() {
			s.schedulePump(n, st, port, next)
			return
		}
		// The in-line continuation is indistinguishable from dispatching the
		// packet's own event: advance the clock and the step count exactly as
		// runWheel would have.
		s.now = next.TsNs
		s.steps++
		p = next
	}
}

// grabFrame copies frame bytes into a pooled link-lifetime buffer.
func (n *SwitchNode) grabFrame(data []byte) []byte {
	var buf []byte
	if k := len(n.pool); k > 0 {
		buf = n.pool[k-1]
		n.pool = n.pool[:k-1]
	}
	return append(buf[:0], data...)
}

func (n *SwitchNode) releaseFrame(buf []byte) { n.pool = append(n.pool, buf) }

// route delivers switch outputs over connected links and forwards digests.
func (n *SwitchNode) route(outs []p4.FrameOut) {
	n.drainDigests()
	processedAt := n.Sim.Now()
	for _, out := range outs {
		link, ok := n.ports[out.Port]
		if !ok {
			n.unroutedFrames++
			if n.Metrics != nil {
				n.Metrics.UnroutedFrames.Inc()
			}
			continue
		}
		// out.Data aliases the switch's deparse buffer, which is reused on
		// the next frame, while delivery happens link.delay later: copy it
		// into a pooled buffer that comes back after delivery.
		n.Sim.scheduleFrame(n, link, processedAt, n.grabFrame(out.Data))
	}
}

// drainDigests moves digests produced by the last packet onto the simulated
// control channel. Digests drained with no handler attached are counted,
// not silently discarded (see the SwitchNode contract).
func (n *SwitchNode) drainDigests() {
	buf := n.sinkBuf
	if len(buf) == 0 {
		return
	}
	n.sinkBuf = buf[:0]
	drainedAt := n.Sim.Now()
	for i, d := range buf {
		if n.OnDigest == nil {
			n.droppedDigests++
			if n.Metrics != nil {
				n.Metrics.DroppedDigests.Inc()
			}
			continue
		}
		if n.Metrics != nil {
			// Occupancy before this receive: the digest being popped counts.
			n.Metrics.DigestQueue.Observe(uint64(len(buf) - i))
		}
		n.Sim.scheduleDigest(n, drainedAt, d)
	}
}
