package stat4p4

import "stat4/internal/p4"

// typedBinds is the typed spelling of Bind that Runtime and ShardedRuntime
// both embed: each method names one kind's parameters and hands the
// resulting Binding to the runtime's Bind. Nothing is checked here — Lower
// does that, once, for every spelling.
type typedBinds struct {
	bind func(Binding) (p4.EntryID, error)
}

// BindFreqEcho tracks the frequency distribution of the echo test integer on
// [0, size): observed value = (wire value + EchoBias) − base. pa:pb are the
// percentile weights (1,1 = median). k ≥ 1 arms the in-switch imbalance
// check at k standard deviations; k = 0 leaves it off.
func (t typedBinds) BindFreqEcho(stage, slot int, m Match, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "freq-echo", Stage: stage, Slot: slot, Match: m,
		Base: base, Size: size, PA: pa, PB: pb, K: k})
}

// BindFreqDst tracks packets per destination group: observed value =
// (ipv4.dst >> shift) − base. shift 8 with a /24-aligned base tracks hosts
// within a /24; shift 16 tracks /24 subnets within a /16, and so on.
func (t typedBinds) BindFreqDst(stage, slot int, m Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "freq-dst", Stage: stage, Slot: slot, Match: m,
		Shift: shift, Base: base, Size: size, PA: pa, PB: pb, K: k})
}

// BindFreqDport tracks packets per TCP destination port group.
func (t typedBinds) BindFreqDport(stage, slot int, m Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "freq-dport", Stage: stage, Slot: slot, Match: m,
		Shift: shift, Base: base, Size: size, PA: pa, PB: pb, K: k})
}

// BindFreqProto tracks packets by IP protocol — the traffic-classification
// use case of Table 1.
func (t typedBinds) BindFreqProto(stage, slot int, m Match, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "freq-proto", Stage: stage, Slot: slot, Match: m,
		Base: base, Size: size, PA: pa, PB: pb, K: k})
}

// BindFreqLen tracks the frame-size distribution in 2^shift-byte buckets.
func (t typedBinds) BindFreqLen(stage, slot int, m Match, shift uint, base uint64, size int, pa, pb, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "freq-len", Stage: stage, Slot: slot, Match: m,
		Shift: shift, Base: base, Size: size, PA: pa, PB: pb, K: k})
}

// BindWindow tracks packets per time interval in a circular window of the
// given capacity, checking each completed interval against mean + k·σ.
// Interval length is 2^intervalShift nanoseconds (2^23 ≈ 8.4 ms, the
// case-study default). On a sharded runtime each shard keeps its own window
// over its share of the traffic; per-interval totals combine with the
// shared-clock core.Window merge, not through CanonicalizeSnapshot.
func (t typedBinds) BindWindow(stage, slot int, m Match, intervalShift uint, capacity int, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "window", Stage: stage, Slot: slot, Match: m,
		IntervalShift: intervalShift, Capacity: capacity, K: k})
}

// BindWindowBytes tracks bytes per time interval ("traffic volumes over
// time"): each packet adds its wire length to the current interval. Only
// available on multiply-capable targets (the squared accumulator needs
// 2·cur·δ + δ²).
func (t typedBinds) BindWindowBytes(stage, slot int, m Match, intervalShift uint, capacity int, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "window-bytes", Stage: stage, Slot: slot, Match: m,
		IntervalShift: intervalShift, Capacity: capacity, K: k})
}

// BindEntropyDst tracks the entropy of the destination-group distribution
// value = (ipv4.dst >> shift) − base on [0, size). h0 arms the in-switch
// collapse check at h0/2^EntropyFrac bits of normalized-scale entropy
// (0 disables it); checkEvery (a power of two) rate-limits the check to
// every checkEvery-th observation.
func (t typedBinds) BindEntropyDst(stage, slot int, m Match, shift uint, base uint64, size int, h0, checkEvery uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "entropy-dst", Stage: stage, Slot: slot, Match: m,
		Shift: shift, Base: base, Size: size, H0: h0, CheckEvery: checkEvery})
}

// BindEntropySrc tracks the entropy of the source-group distribution — the
// signal that collapses when one source dominates the traffic mix.
func (t typedBinds) BindEntropySrc(stage, slot int, m Match, shift uint, base uint64, size int, h0, checkEvery uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "entropy-src", Stage: stage, Slot: slot, Match: m,
		Shift: shift, Base: base, Size: size, H0: h0, CheckEvery: checkEvery})
}

// BindHeavyHitterSrc samples flows keyed by (ipv4.src >> shift) with
// recirculation probability 2^-sampleShift, promoting winners into the
// slot's candidate table.
func (t typedBinds) BindHeavyHitterSrc(stage, slot int, m Match, shift, sampleShift uint) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "hh-src", Stage: stage, Slot: slot, Match: m, Shift: shift, SampleShift: sampleShift})
}

// BindHeavyHitterDst samples flows keyed by (ipv4.dst >> shift).
func (t typedBinds) BindHeavyHitterDst(stage, slot int, m Match, shift, sampleShift uint) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "hh-dst", Stage: stage, Slot: slot, Match: m, Shift: shift, SampleShift: sampleShift})
}

// BindFlowDst tracks flows keyed by (ipv4.dst >> shift) in the slot's
// 2-left flow table: epochShift sets the expiry clock (epoch = ts >>
// epochShift), ttl how many epochs an entry survives after its last touch,
// sampleShift the 2^-sampleShift admission coin for new keys (0 admits
// every flow), and k ≥ 1 arms the mean+kσ hot-flow check whose digest names
// the key. epochShift 63 with ttl 1 never expires an entry (see flowtable.go).
func (t typedBinds) BindFlowDst(stage, slot int, m Match, shift, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "flow-dst", Stage: stage, Slot: slot, Match: m,
		Shift: shift, EpochShift: epochShift, TTL: ttl, SampleShift: sampleShift, K: k})
}

// BindFlowSrc tracks flows keyed by (ipv4.src >> shift) — the per-source
// view (super-spreaders, DDoS sources).
func (t typedBinds) BindFlowSrc(stage, slot int, m Match, shift, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "flow-src", Stage: stage, Slot: slot, Match: m,
		Shift: shift, EpochShift: epochShift, TTL: ttl, SampleShift: sampleShift, K: k})
}

// BindFlowPair tracks flows keyed by src<<32|dst, the flow-pair view.
func (t typedBinds) BindFlowPair(stage, slot int, m Match, epochShift uint, ttl uint64, sampleShift uint, k uint64) (p4.EntryID, error) {
	return t.bind(Binding{Kind: "flow-pair", Stage: stage, Slot: slot, Match: m,
		EpochShift: epochShift, TTL: ttl, SampleShift: sampleShift, K: k})
}
