package netem

import "stat4/internal/p4"

// SwitchNode runs a p4.Switch inside the simulation: injected packets are
// processed at their timestamps, output frames are delivered to connected
// ports after their link delay, and digests reach the controller handler
// after the control-channel delay — the push arrow of Figure 1c.
//
// Attach-handler-before-inject contract: digests are drained from the switch
// after every processed packet, so OnDigest (and any Connect receivers) must
// be in place before the first Inject/InjectFrame/InjectStream call. Digests
// drained while OnDigest is nil are dropped — counted by DroppedDigests and
// the telemetry snapshot, never silently — and frames emitted on ports with
// no connected link are likewise counted by UnroutedFrames.
//
// The Sim, CtrlDelay, OnDigest and Metrics fields (and the Connect/Inject
// methods) are promoted from the shared node engine; see nodeCore.
type SwitchNode struct {
	nodeCore
	SW *p4.Switch
}

// NewSwitchNode wires a switch into a simulation. It installs a digest sink
// on the switch, so digests skip the mailbox channel and are forwarded as
// typed events; anything else reading sw.Digests() directly will no longer
// see them.
func NewSwitchNode(sim *Sim, sw *p4.Switch, ctrlDelay uint64) *SwitchNode {
	n := &SwitchNode{SW: sw}
	n.init(sim, sw, sw.Digests(), ctrlDelay)
	sw.SetDigestSink(n.digestSink)
	return n
}
