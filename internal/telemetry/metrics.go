package telemetry

import (
	"fmt"
	"time"
)

// Counter is a plain monotonic event counter. Like every recorder in the
// package it is single-writer: increment it from the data-plane goroutine
// only and read it from that goroutine or after processing stops.
type Counter uint64

// Inc adds one.
//
//stat4:datapath
func (c *Counter) Inc() { *c++ }

// Add adds n.
//
//stat4:datapath
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return uint64(*c) }

// TimelineEntry is one recorded transition.
type TimelineEntry struct {
	AtNs uint64 `json:"at_ns"`
	Code uint64 `json:"code"`
}

// Timeline is a bounded record of (timestamp, code) events — the
// controller's phase-transition log in integer form. Capacity is fixed at
// construction so recording never allocates; entries past the capacity are
// dropped and counted rather than silently lost.
type Timeline struct {
	entries []TimelineEntry
	dropped uint64
}

// NewTimeline returns an empty timeline that holds up to capacity entries.
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = 64
	}
	return &Timeline{entries: make([]TimelineEntry, 0, capacity)}
}

// Record appends one transition, dropping (and counting) it if the timeline
// is full. Codes are caller-defined; the controller uses its Phase values.
func (t *Timeline) Record(atNs, code uint64) {
	if len(t.entries) == cap(t.entries) {
		t.dropped++
		return
	}
	t.entries = append(t.entries, TimelineEntry{AtNs: atNs, Code: code})
}

// Entries returns the recorded transitions (read-only for callers).
func (t *Timeline) Entries() []TimelineEntry { return t.entries }

// Dropped returns how many transitions did not fit.
func (t *Timeline) Dropped() uint64 { return t.dropped }

// Reset clears the timeline.
func (t *Timeline) Reset() {
	t.entries = t.entries[:0]
	t.dropped = 0
}

// SwitchMetrics instruments one p4.Switch: it implements the p4.Observer
// interface (per-packet processing cost, digests raised) and additionally
// tracks the wall-clock wait between the switch raising a digest and the
// consumer draining it — the push-arrow latency of Figure 1c as the host
// actually delivers it. Consumers report drains via DigestDelivered; emit
// timestamps ride a fixed ring sized to the digest mailbox, so pairing is
// FIFO like the mailbox itself and recording never allocates.
type SwitchMetrics struct {
	// Cost is the per-packet processing cost in nanoseconds (parse,
	// execute, and deparse when the Process* call emits frames).
	Cost *Hist
	// DigestWait is the emit→drain wall-clock wait in nanoseconds.
	DigestWait *Hist

	emitted   Counter
	delivered Counter

	// Emit-timestamp ring; head/tail advance with compare-and-reset (the
	// win_head_wrap idiom) — no modulo.
	ring       []uint64
	head, tail int
	n          int
}

// NewSwitchMetrics returns switch instrumentation whose emit-timestamp ring
// holds ringCap in-flight digests (0 picks 1024, the sharded switch's default
// merged-mailbox capacity).
func NewSwitchMetrics(ringCap int) *SwitchMetrics {
	if ringCap <= 0 {
		ringCap = 1024
	}
	return &SwitchMetrics{
		Cost:       NewHist(),
		DigestWait: NewHist(),
		ring:       make([]uint64, ringCap),
	}
}

// nowNanos is the wall clock used for digest-wait pairing.
func nowNanos() uint64 { return uint64(time.Now().UnixNano()) }

// PacketCost records one packet's processing cost (p4.Observer).
//
//stat4:datapath
func (m *SwitchMetrics) PacketCost(ns uint64) { m.Cost.Observe(ns) }

// DigestEmitted records a digest the switch raised (p4.Observer) and stamps
// its emit time for the wait measurement. If the consumer never
// drains (ring full), the oldest stamp is overwritten so the ring mirrors a
// bounded mailbox rather than growing.
//
//stat4:datapath
func (m *SwitchMetrics) DigestEmitted() {
	m.emitted.Inc()
	if m.n == len(m.ring) {
		// Overwrite the oldest stamp.
		m.tail++
		if m.tail == len(m.ring) {
			m.tail = 0
		}
		m.n--
	}
	m.ring[m.head] = nowNanos()
	m.head++
	if m.head == len(m.ring) {
		m.head = 0
	}
	m.n++
}

// DigestDelivered records one digest drained from the mailbox, pairing it
// FIFO with its emit stamp and folding the wait into DigestWait. Callers
// invoke it once per received digest.
func (m *SwitchMetrics) DigestDelivered() {
	m.delivered.Inc()
	if m.n == 0 {
		return // drained more than was stamped (observer attached late)
	}
	ts := m.ring[m.tail]
	m.tail++
	if m.tail == len(m.ring) {
		m.tail = 0
	}
	m.n--
	now := nowNanos()
	if now < ts {
		// The wall clock stepped backwards between stamp and drain; record
		// a zero wait rather than an enormous wrapped one.
		now = ts
	}
	m.DigestWait.Observe(now - ts)
}

// Emitted returns how many digests the data plane raised.
func (m *SwitchMetrics) Emitted() uint64 { return m.emitted.Value() }

// Delivered returns how many digests consumers reported drained.
func (m *SwitchMetrics) Delivered() uint64 { return m.delivered.Value() }

// NodeMetrics instruments one netem.SwitchNode: the simulated channel
// observables of Figure 1c in virtual time.
type NodeMetrics struct {
	// FrameLatency is inject→deliver virtual nanoseconds for frames routed
	// over connected links.
	FrameLatency *Hist
	// CtrlLatency is drain→controller-arrival virtual nanoseconds for
	// digests on the control channel.
	CtrlLatency *Hist
	// DigestQueue is the switch digest-queue occupancy observed as each
	// digest is drained, counting the digest being popped — a backlog of
	// three records samples {3,2,1}, never {2,1,0}.
	DigestQueue *Hist
	// DroppedDigests counts digests drained while no OnDigest handler was
	// attached (see the SwitchNode attach-before-inject contract).
	DroppedDigests Counter
	// UnroutedFrames counts frames emitted on ports with no connected link.
	UnroutedFrames Counter
}

// NewNodeMetrics returns empty node instrumentation.
func NewNodeMetrics() *NodeMetrics {
	return &NodeMetrics{
		FrameLatency: NewHist(),
		CtrlLatency:  NewHist(),
		DigestQueue:  NewHist(),
	}
}

// Pipeline bundles the recorders for one switch→controller pipeline: the
// switch observer, the netem node observables, the simulator's event-queue
// depth and the controller's phase timeline. It is what the cmds wire up
// behind -metrics.
type Pipeline struct {
	Switch *SwitchMetrics
	Node   *NodeMetrics
	Queue  *Hist
	Phases *Timeline
}

// NewPipeline returns a fully-populated bundle.
func NewPipeline() *Pipeline {
	return &Pipeline{
		Switch: NewSwitchMetrics(0),
		Node:   NewNodeMetrics(),
		Queue:  NewHist(),
		Phases: NewTimeline(64),
	}
}

// Register adds every recorder of the bundle to reg under standard names.
func (p *Pipeline) Register(reg *Registry) {
	reg.RegisterHist("packet_cost_ns", "per-packet processing cost (deparse only when frames are emitted), sampled 1-in-64", p.Switch.Cost)
	reg.RegisterHist("digest_wait_ns", "digest emit-to-drain wall-clock wait", p.Switch.DigestWait)
	reg.RegisterCounter("digests_emitted", "digests raised by the switch", p.Switch.Emitted)
	reg.RegisterCounter("digests_delivered", "digests drained by consumers", p.Switch.Delivered)
	reg.RegisterHist("frame_latency_ns", "inject-to-deliver virtual latency", p.Node.FrameLatency)
	reg.RegisterHist("ctrl_latency_ns", "digest control-channel virtual latency", p.Node.CtrlLatency)
	reg.RegisterHist("digest_queue_depth", "digest channel occupancy at drain", p.Node.DigestQueue)
	reg.RegisterCounter("node_dropped_digests", "digests drained with no handler attached", p.Node.DroppedDigests.Value)
	reg.RegisterCounter("node_unrouted_frames", "frames emitted on unconnected ports", p.Node.UnroutedFrames.Value)
	reg.RegisterHist("event_queue_depth", "simulator event-queue depth per event", p.Queue)
	reg.RegisterTimeline("controller_phase", "drill-down phase transitions", p.Phases)
}

// MergeFrom folds another switch observer's recordings into this one: cost
// and digest-wait distributions merge, digest counters add. The in-flight
// emit-timestamp ring is deliberately untouched — a merged view is a
// read-side aggregate over finished (or quiesced) shards, not a live
// recorder to keep pairing digests on.
func (m *SwitchMetrics) MergeFrom(o *SwitchMetrics) error {
	if err := m.Cost.MergeFrom(o.Cost); err != nil {
		return err
	}
	if err := m.DigestWait.MergeFrom(o.DigestWait); err != nil {
		return err
	}
	m.emitted.Add(o.emitted.Value())
	m.delivered.Add(o.delivered.Value())
	return nil
}

// ShardedPipeline bundles the recorders for a sharded switch: one switch
// observer per shard (each single-writer on its shard's goroutine) and a
// persistent merged fleet view. It is what stat4d and stat4-replay -shards
// wire up. It has no simulator, node or controller, so it carries none of
// Pipeline's recorders for them.
//
// The merged histograms are rebuilt by Refresh, not kept live — merging is
// a read-side aggregate (the controller-pull arrow), so call Refresh once
// the shards have quiesced, before rendering the registry. Merged counters
// need no refresh: they are registered as lazy sums over the shards.
type ShardedPipeline struct {
	// Shards holds one observer per shard; attach Shards[i] to shard i.
	Shards []*SwitchMetrics
	// Merged is the fleet-wide switch view, valid after Refresh.
	Merged *SwitchMetrics
}

// NewShardedPipeline returns a bundle for n shards.
func NewShardedPipeline(n int) *ShardedPipeline {
	sp := &ShardedPipeline{Merged: NewSwitchMetrics(0)}
	for i := 0; i < n; i++ {
		sp.Shards = append(sp.Shards, NewSwitchMetrics(0))
	}
	return sp
}

// Refresh rebuilds the merged fleet view from the shards' current state.
// Call it after processing stops (or between quiesced intervals), before
// rendering a registry the bundle is registered on.
func (sp *ShardedPipeline) Refresh() {
	sp.Merged.Cost.Reset()
	sp.Merged.DigestWait.Reset()
	sp.Merged.emitted, sp.Merged.delivered = 0, 0
	for _, s := range sp.Shards {
		// Shapes are package-constructed, so merging cannot fail.
		_ = sp.Merged.MergeFrom(s)
	}
}

// shardSum returns a lazy fleet-total counter reader.
func (sp *ShardedPipeline) shardSum(read func(*SwitchMetrics) uint64) func() uint64 {
	return func() uint64 {
		var total uint64
		for _, s := range sp.Shards {
			total += read(s)
		}
		return total
	}
}

// Register adds the merged fleet view under the standard pipeline names and
// each shard's observer under a shardN_ prefix, so one snapshot shows both
// the chassis totals and the per-shard split. Merged histograms render
// whatever the last Refresh built; counters render live sums. A shard stages
// its digests for the sharded switch, so no shard drops one: the only loss
// is the merged mailbox's, which the switch counts in Stats().DigestDrops
// and the caller exports beside its other switch counters.
func (sp *ShardedPipeline) Register(reg *Registry) {
	reg.RegisterHist("packet_cost_ns", "per-packet processing cost (deparse only when frames are emitted), all shards, sampled 1-in-64", sp.Merged.Cost)
	reg.RegisterHist("digest_wait_ns", "digest emit-to-drain wall-clock wait, all shards", sp.Merged.DigestWait)
	reg.RegisterCounter("digests_emitted", "digests raised, all shards",
		sp.shardSum((*SwitchMetrics).Emitted))
	reg.RegisterCounter("digests_delivered", "digests drained by consumers, all shards",
		sp.shardSum((*SwitchMetrics).Delivered))
	for i, s := range sp.Shards {
		prefix := fmt.Sprintf("shard%d_", i)
		reg.RegisterHist(prefix+"packet_cost_ns", fmt.Sprintf("shard %d per-packet processing cost (deparse only when frames are emitted), sampled 1-in-64", i), s.Cost)
		reg.RegisterCounter(prefix+"digests_emitted", fmt.Sprintf("shard %d digests raised", i), s.Emitted)
	}
}
