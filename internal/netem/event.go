package netem

import (
	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/traffic"
)

// evKind discriminates the typed event records of the wheel engine. Each
// kind carries its operands inline in the event struct, so scheduling one
// writes a few slab fields instead of allocating a closure.
type evKind uint8

const (
	// evFn is the compatibility kind: an arbitrary handler closure, used by
	// Sim.At/After callers (controller timers, pull monitors, tests).
	evFn evKind = iota
	// evPacket processes one injected packet on a node and routes the output.
	evPacket
	// evFrame delivers pooled frame bytes to a link receiver and returns the
	// buffer to the node's pool.
	evFrame
	// evDigest hands one digest to the node's OnDigest handler after the
	// control-channel delay.
	evDigest
	// evPump resumes a lazy traffic stream: it processes the pending packet
	// and keeps pulling packets in-line while no other event is due before
	// them, then reschedules itself at the next packet's timestamp.
	evPump
)

// event is one scheduled occurrence, stored in the Sim's slab and chained
// through wheel buckets (or the free list) by next. Only the fields of the
// active kind are meaningful; freeing clears the record so the slab never
// retains dead packets, buffers or streams.
type event struct {
	at   uint64
	seq  uint64
	next int32
	kind evKind
	port uint16 // evPacket, evPump: ingress port

	fn     func()         // evFn
	node   *SwitchNode    // evPacket, evFrame, evDigest, evPump
	pkt    *packet.Packet // evPacket; evPump: the pending packet
	link   *portLink      // evFrame
	buf    []byte         // evFrame: pooled frame bytes
	stamp  uint64         // evFrame: processedAt; evDigest: drainedAt; evPump: pending TsNs
	digest p4.Digest      // evDigest
	stream traffic.Stream // evPump
}

// allocEvent pops a record off the free list, growing the slab only when
// the simulation reaches a new high-water mark of in-flight events.
func (s *Sim) allocEvent() int32 {
	if s.free >= 0 {
		idx := s.free
		s.free = s.slab[idx].next
		return idx
	}
	s.slab = append(s.slab, event{})
	return int32(len(s.slab) - 1)
}

func (s *Sim) freeEvent(idx int32) {
	s.slab[idx] = event{next: s.free}
	s.free = idx
}

// schedule stamps the record's time and sequence and files it into the
// wheel. Times in the past clamp to now, which also upholds the wheel's
// cursor invariant (insertions never precede the cursor).
func (s *Sim) schedule(at uint64, idx int32) {
	if at < s.now {
		at = s.now
	}
	e := &s.slab[idx]
	e.at = at
	e.seq = s.seq
	s.seq++
	s.pending++
	s.wheelInsert(idx)
}

//stat4:reference host-side simulator hot path, not switch-implementable
func (s *Sim) schedulePacket(n *SwitchNode, ts uint64, port uint16, pkt *packet.Packet) {
	idx := s.allocEvent()
	e := &s.slab[idx]
	e.kind = evPacket
	e.node = n
	e.port = port
	e.pkt = pkt
	s.schedule(ts, idx)
}

//stat4:reference host-side simulator hot path, not switch-implementable
func (s *Sim) scheduleFrame(n *SwitchNode, link *portLink, processedAt uint64, buf []byte) {
	idx := s.allocEvent()
	e := &s.slab[idx]
	e.kind = evFrame
	e.node = n
	e.link = link
	e.buf = buf
	e.stamp = processedAt
	s.schedule(s.now+link.delay, idx)
}

//stat4:reference host-side simulator hot path, not switch-implementable
func (s *Sim) scheduleDigest(n *SwitchNode, drainedAt uint64, d p4.Digest) {
	idx := s.allocEvent()
	e := &s.slab[idx]
	e.kind = evDigest
	e.node = n
	e.stamp = drainedAt
	e.digest = d
	s.schedule(drainedAt+n.CtrlDelay, idx)
}

//stat4:reference host-side simulator hot path, not switch-implementable
func (s *Sim) schedulePump(n *SwitchNode, st traffic.Stream, port uint16, p traffic.Pkt) {
	idx := s.allocEvent()
	e := &s.slab[idx]
	e.kind = evPump
	e.node = n
	e.port = port
	e.pkt = p.Frame
	e.stamp = p.TsNs
	e.stream = st
	s.schedule(p.TsNs, idx)
}

// dispatch runs one popped event. The record is copied out and freed before
// the handler runs: handlers schedule new events, which may grow the slab or
// reuse this very slot.
func (s *Sim) dispatch(idx int32) {
	e := s.slab[idx]
	s.freeEvent(idx)
	switch e.kind {
	case evFn:
		e.fn()
	case evPacket:
		n := e.node
		n.route(n.SW.ProcessPacket(s.now, e.port, e.pkt))
	case evFrame:
		n := e.node
		if n.Metrics != nil {
			n.Metrics.FrameLatency.Observe(s.now - e.stamp)
		}
		// Instrumentation hooks obey the pooled-buffer lifetime rule: the
		// bytes are valid only until deliver returns (see doc.go).
		e.link.deliver(s.now, e.buf)
		n.releaseFrame(e.buf)
	case evDigest:
		n := e.node
		if n.Metrics != nil {
			n.Metrics.CtrlLatency.Observe(s.now - e.stamp)
		}
		n.OnDigest(s.now, e.digest)
	case evPump:
		e.node.pumpRun(e.stream, e.port, traffic.Pkt{TsNs: e.stamp, Frame: e.pkt})
	}
}
