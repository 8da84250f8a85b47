package stat4p4

import "stat4/internal/p4"

// Bind(Binding{…}) is the one spelling of a binding. These three typed
// methods remain only because the benchmark under bench/ still spells them
// (its binder interface); they go with it, and this file with them (ROADMAP
// item 2(d)). Nothing is checked here — Lower does that, once.

// BindFreqDst is Bind of a freq-dst Binding.
func (rt *Runtime) BindFreqDst(stage, slot int, m Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return rt.Bind(Binding{Kind: "freq-dst", Stage: stage, Slot: slot, Match: m,
		Shift: shift, Base: base, Size: size, PA: pa, PB: pb, K: k})
}

// BindWindow is Bind of a window Binding.
func (rt *Runtime) BindWindow(stage, slot int, m Match, intervalShift uint, capacity int, k uint64) (p4.EntryID, error) {
	return rt.Bind(Binding{Kind: "window", Stage: stage, Slot: slot, Match: m,
		IntervalShift: intervalShift, Capacity: capacity, K: k})
}

// BindFlowSrc is Bind of a flow-src Binding.
func (rt *Runtime) BindFlowSrc(stage, slot int, m Match, shift, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error) {
	return rt.Bind(Binding{Kind: "flow-src", Stage: stage, Slot: slot, Match: m,
		Shift: shift, EpochShift: epochShift, TTL: ttl, SampleShift: sampleShift, K: k})
}
