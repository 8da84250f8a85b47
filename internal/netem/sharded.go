package netem

import "stat4/internal/p4"

// ShardedSwitchNode runs a p4.ShardedSwitch inside the simulation — a
// multi-pipeline switch as one topology node. Injected packets are
// dispatched to their flow-hash shard at their timestamps, output frames are
// delivered over connected links after the link delay, and digests from all
// shards reach the controller handler after the control-channel delay.
//
// It obeys the same attach-handler-before-inject contract as SwitchNode:
// OnDigest and Connect receivers must be in place before the first inject,
// and digests drained with no handler (or frames emitted on unconnected
// ports) are counted, never silently dropped. The simulator stays
// single-threaded — shard workers only run during ProcessBatch, which this
// node never uses; per-event dispatch processes each packet synchronously on
// its shard.
//
// Metrics here are chassis-level: one control channel and one set of links
// serve all shards, so the node meters them as a unit (per-shard datapath
// metrics attach to the shards' switch observers instead). All shards share
// the port space, as pipelines share a chassis.
type ShardedSwitchNode struct {
	nodeCore
	SW *p4.ShardedSwitch
}

// NewShardedSwitchNode wires a sharded switch into a simulation. It installs
// a fleet-level digest sink, bypassing the merged mailbox channel; anything
// else reading sw.Digests() directly will no longer see forwarded digests.
func NewShardedSwitchNode(sim *Sim, sw *p4.ShardedSwitch, ctrlDelay uint64) *ShardedSwitchNode {
	n := &ShardedSwitchNode{SW: sw}
	n.init(sim, sw, sw.Digests(), ctrlDelay)
	sw.SetDigestSink(n.digestSink)
	return n
}
