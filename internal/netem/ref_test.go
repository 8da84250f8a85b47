package netem

// This file is the reference engine: the simulator's original event loop,
// kept as the oracle the timer wheel is differentially tested against. It is
// deliberately naive — a container/heap priority queue ordered by (time,
// seq), one closure per event, one event per packet, a fresh copy per
// delivered frame, digests drained from the switch's channel — so that it
// shares nothing with the wheel, the typed event slab, the stream pump, the
// frame pool or the digest sink it checks. Only tests link it.

import (
	"container/heap"

	"stat4/internal/controller"
	"stat4/internal/p4"
	"stat4/internal/telemetry"
	"stat4/internal/traffic"
)

// simulator is the scheduling surface both engines offer: the controller's
// Scheduler plus absolute scheduling, bounded runs and the step count.
type simulator interface {
	controller.Scheduler
	At(t uint64, fn func())
	Run()
	RunUntil(deadline uint64)
	Steps() uint64
}

var (
	_ simulator = (*Sim)(nil)
	_ simulator = (*refSim)(nil)
)

// refSim is the reference event loop.
type refSim struct {
	now, seq, steps uint64
	queue           refQueue
}

type refEvent struct {
	at, seq uint64
	fn      func()
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

func (s *refSim) Now() uint64   { return s.now }
func (s *refSim) Steps() uint64 { return s.steps }

// At schedules fn at t; a time in the past runs at the current time.
func (s *refSim) At(t uint64, fn func()) {
	if t < s.now {
		t = s.now
	}
	heap.Push(&s.queue, refEvent{at: t, seq: s.seq, fn: fn})
	s.seq++
}

func (s *refSim) After(d uint64, fn func()) { s.At(s.now+d, fn) }
func (s *refSim) Run()                      { s.RunUntil(^uint64(0)) }

// RunUntil has Sim.RunUntil's contract: events due by the deadline run, and
// the clock never moves backwards.
func (s *refSim) RunUntil(deadline uint64) {
	if deadline < s.now {
		deadline = s.now
	}
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		e := heap.Pop(&s.queue).(refEvent)
		s.now = e.at
		s.steps++
		e.fn()
	}
	if deadline != ^uint64(0) && s.now < deadline {
		s.now = deadline
	}
}

// refNode is the reference switch node. It installs no digest sink: digests
// stay in the switch's merged mailbox and are drained after every processed
// packet.
type refNode struct {
	sim       *refSim
	proc      *p4.ShardedSwitch
	digests   <-chan p4.Digest
	ports     map[uint16]*portLink
	ctrlDelay uint64
	OnDigest  func(now uint64, d p4.Digest)
	Metrics   *telemetry.NodeMetrics
}

func newRefNode(sim *refSim, proc *p4.ShardedSwitch, digests <-chan p4.Digest, ctrlDelay uint64) *refNode {
	return &refNode{sim: sim, proc: proc, digests: digests, ports: make(map[uint16]*portLink), ctrlDelay: ctrlDelay}
}

func (n *refNode) Connect(port uint16, delay uint64, deliver func(now uint64, data []byte)) {
	n.ports[port] = &portLink{delay: delay, deliver: deliver}
}

// InjectStream schedules one event per packet, each pulling the next.
func (n *refNode) InjectStream(st traffic.Stream, port uint16) {
	var pump func()
	pump = func() {
		p, ok := st.Next()
		if !ok {
			return
		}
		n.sim.At(p.TsNs, func() {
			n.route(n.proc.ProcessPacket(n.sim.Now(), port, p.Frame))
			pump()
		})
	}
	pump()
}

// route forwards the packet's digests, then delivers each output frame as a
// fresh copy in its own closure: out.Data aliases the switch's deparse
// buffer, which the next frame reuses.
func (n *refNode) route(outs []p4.FrameOut) {
	n.drainDigests()
	for _, out := range outs {
		link, ok := n.ports[out.Port]
		if !ok {
			continue
		}
		data := append([]byte(nil), out.Data...)
		n.sim.After(link.delay, func() { link.deliver(n.sim.Now(), data) })
	}
}

// drainDigests moves the switch channel's digests onto the control channel,
// recording the occupancy before each receive. With no handler attached the
// digests are discarded.
func (n *refNode) drainDigests() {
	for {
		q := uint64(len(n.digests))
		select {
		case d := <-n.digests:
			if n.OnDigest == nil {
				continue
			}
			if n.Metrics != nil {
				n.Metrics.DigestQueue.Observe(q)
			}
			n.sim.After(n.ctrlDelay, func() { n.OnDigest(n.sim.Now(), d) })
		default:
			return
		}
	}
}

// node is the injection surface the differential fixtures drive on either
// engine.
type node interface {
	Connect(port uint16, delay uint64, deliver func(now uint64, data []byte))
	InjectStream(st traffic.Stream, port uint16)
}

// attach wires sw into a fresh simulator — the reference engine when ref is
// set, the production one otherwise — with onDigest as the controller's
// handler.
func attach(ref bool, sw *p4.ShardedSwitch, ctrlDelay uint64, onDigest func(now uint64, d p4.Digest)) (simulator, node) {
	if ref {
		sim := &refSim{}
		n := newRefNode(sim, sw, sw.Digests(), ctrlDelay)
		n.OnDigest = onDigest
		return sim, n
	}
	sim := NewSim()
	n := NewSwitchNode(sim, sw, ctrlDelay)
	n.OnDigest = onDigest
	return sim, n
}
