package stat4p4

import (
	"fmt"
	"sort"

	"stat4/internal/core"
	"stat4/internal/intstat"
	"stat4/internal/p4"
	"stat4/internal/packet"
)

// This file is the controller-side face of the sharded datapath: a
// ShardedRuntime drives N replicas of the emitted program behind
// p4.ShardedSwitch, fanning every control-plane operation out to all shards,
// and CanonicalizeSnapshot turns any snapshot of the program's registers —
// one shard's, a merged one, a serial reference's — into a canonical form in
// which every derived register is a pure function of the counter arrays.
//
// Canonicalisation is what makes "merged snapshots byte-identical to serial"
// a theorem rather than a hope. The counter arrays are additive, so merged
// counters equal serial counters exactly. The emitted program's N, Xsum and
// Xsumsq are exactly determined by the final counters (N counts non-zero
// cells, Xsum sums them, Xsumsq sums their squares, all modulo the cell
// width — the per-packet incremental identities telescope), and variance and
// σ are in turn pure functions of those, recomputed with the emitted
// program's own arithmetic (wrapping multiplies and SatSub, or the strict
// shift trees). Only the percentile markers and their movement counters are
// path-dependent — which equilibrium a marker reaches, and how many steps it
// took, depend on packet order — so the canonical form re-derives markers by
// the bounded walk (core.RederiveMarker) and zeroes movement counters.
// Applying the same pure function to both sides yields byte-identical
// snapshots; the only approximation is that canonical marker positions can
// differ from a raw serial register by the marker's usual one-step lag.

// SlotBinding records the percentile weights a frequency slot was bound
// with, the one piece of binding state canonicalisation needs. Entropy marks
// slots whose contribution cells and sum must also be rebuilt.
type SlotBinding struct {
	Slot    int
	PA, PB  uint64
	Entropy bool
}

// slotScalars is the canonical scalar block of one frequency slot.
type slotScalars struct {
	n, xsum, xsumsq uint64
	varv, sd        uint64
	med, low, high  uint64
	medinit         uint64
}

func (l *Library) cellMask() uint64 { return intstat.Mask(uint(l.Opts.CellWidth)) }

// recomputeSlot derives the canonical scalars from a slot's counter cells,
// using the emitted program's own arithmetic so the result is bit-identical
// to what the data plane stores for the same counters: 64-bit wrapping
// multiplies with saturating subtraction (or the strict one-term shift
// approximations), the Figure 2 square root, and register-width masking.
//
// Exactness caveat, shared with the data plane: N is recovered as the count
// of non-zero cells, which is only correct while no counter has wrapped the
// cell width back to zero — the same point at which the in-switch moments
// stop being meaningful.
func (l *Library) recomputeSlot(counters []uint64, pa, pb uint64) slotScalars {
	mask := l.cellMask()
	var s slotScalars
	for _, f := range counters {
		if f != 0 {
			s.n++
		}
		s.xsum += f
		s.xsumsq += f * f
	}
	s.n &= mask
	s.xsum &= mask
	s.xsumsq &= mask
	if !l.Opts.NoVariance {
		var nss, ss uint64
		if l.Opts.Strict {
			if s.n != 0 {
				nss = s.xsumsq << uint(intstat.MSB(s.n))
			}
			if s.xsum != 0 {
				ss = s.xsum << uint(intstat.MSB(s.xsum))
			}
		} else {
			nss = s.n * s.xsumsq
			ss = s.xsum * s.xsum
		}
		sqin := intstat.SatSub(nss, ss)
		s.varv = sqin & mask
		s.sd = intstat.SqrtApprox(sqin) & mask
	}
	if idx, low, high, ok := core.RederiveMarker(counters, pa, pb); ok {
		s.med = idx & mask
		s.low = low & mask
		s.high = high & mask
		s.medinit = 1
	}
	return s
}

// CanonicalizeSnapshot rewrites a snapshot of the emitted program's
// registers into canonical form, in place: every MergeDerived register is
// zeroed, then for each listed frequency slot the scalar block (N, Xsum,
// Xsumsq, variance, σ, marker position and masses, marker-seeded flag) is
// recomputed from the slot's counter cells. Two switches that saw the same
// multiset of packets — a serial switch and the merge of shards that split
// its stream — canonicalise to byte-identical snapshots.
//
// Window slots are not listed: their scalar state is clock-driven, and
// cross-shard window merging is the shared-clock core.Window.MergeFrom
// contract, not a register rewrite.
func (l *Library) CanonicalizeSnapshot(snap *p4.Snapshot, slots []SlotBinding) {
	for _, rd := range l.Prog.Registers {
		if rd.Merge != p4.MergeDerived {
			continue
		}
		cells := snap.Registers[rd.Name]
		for i := range cells {
			cells[i] = 0
		}
	}
	counters := snap.Registers[RegCounters]
	for _, sb := range slots {
		base := sb.Slot * l.Opts.Size
		s := l.recomputeSlot(counters[base:base+l.Opts.Size], sb.PA, sb.PB)
		set := func(reg string, v uint64) { snap.Registers[reg][sb.Slot] = v }
		set(RegN, s.n)
		set(RegXsum, s.xsum)
		set(RegXsumsq, s.xsumsq)
		set(RegVar, s.varv)
		set(RegSD, s.sd)
		set(RegMed, s.med)
		set(RegLow, s.low)
		set(RegHigh, s.high)
		set(RegMedInit, s.medinit)
		if l.Opts.Entropy && sb.Entropy {
			// Rebuild the contribution cells and their sum with the emitted
			// arithmetic: c = (f·log2fix(f)) & mask, S = Σc & mask. The
			// incremental datapath telescopes to exactly this, so both sides
			// of the differential land on identical bytes.
			mask := l.cellMask()
			ecells := snap.Registers[RegEntCell]
			var sum uint64
			for i, fv := range counters[base : base+l.Opts.Size] {
				c := (fv * intstat.Log2Fixed(fv, l.Opts.EntropyFrac)) & mask
				ecells[base+i] = c
				sum += c
			}
			snap.Registers[RegEntSum][sb.Slot] = sum & mask
		}
	}
}

// ShardedRuntime is Runtime for a sharded data plane: one emitted program
// replicated across N shards behind the flow-hash dispatcher. A binding is
// lowered once and the same table entry inserted on every shard, and routing
// operations fan out likewise, so the shards stay configured identically —
// the contract MergedSnapshot's entry view and the dispatcher's correctness
// both rest on.
type ShardedRuntime struct {
	typedBinds
	lib *Library
	ss  *p4.ShardedSwitch
	rts []*Runtime
	// slots records what the last Bind put on each slot: FreqSlots' notes
	// and the Moments view's merge rule both read it.
	slots map[int]Lowered
}

// NewShardedRuntime instantiates n shards of the library's program.
func NewShardedRuntime(lib *Library, n int) (*ShardedRuntime, error) {
	ss, err := p4.NewShardedSwitch(lib.Prog, lib.Std, n, lib.Opts.DigestBuf)
	if err != nil {
		return nil, err
	}
	sr := &ShardedRuntime{lib: lib, ss: ss, slots: make(map[int]Lowered)}
	sr.bind = sr.Bind
	for i := 0; i < n; i++ {
		sr.rts = append(sr.rts, newRuntime(lib, ss.Shard(i)))
	}
	return sr, nil
}

// Sharded returns the underlying sharded data plane.
func (sr *ShardedRuntime) Sharded() *p4.ShardedSwitch { return sr.ss }

// Library returns the emitted library.
func (sr *ShardedRuntime) Library() *Library { return sr.lib }

// NumShards returns the replica count.
func (sr *ShardedRuntime) NumShards() int { return len(sr.rts) }

// ShardRuntime returns the per-shard control handle, for reading one shard's
// registers or attaching per-shard observers.
func (sr *ShardedRuntime) ShardRuntime(i int) *Runtime { return sr.rts[i] }

// Close stops the shard workers.
func (sr *ShardedRuntime) Close() { sr.ss.Close() }

// each fans one control-plane operation out to every shard, asserting the
// shards hand back the same entry ID — they must, since they are driven
// identically from birth; a divergence means the identical-configuration
// contract was broken and sharded state can no longer be trusted.
func (sr *ShardedRuntime) each(f func(rt *Runtime) (p4.EntryID, error)) (p4.EntryID, error) {
	var id p4.EntryID
	for i, rt := range sr.rts {
		got, err := f(rt)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			id = got
		} else if got != id {
			return 0, fmt.Errorf("stat4p4: shard %d assigned entry %d, shard 0 assigned %d — shards configured divergently", i, got, id)
		}
	}
	return id, nil
}

// eachErr fans out an operation with no entry ID.
func (sr *ShardedRuntime) eachErr(f func(rt *Runtime) error) error {
	for i, rt := range sr.rts {
		if err := f(rt); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Bind lowers the binding once and inserts the resulting entry on every
// shard, then records it as the slot's binding, replacing whatever an earlier
// Bind left there.
func (sr *ShardedRuntime) Bind(b Binding) (p4.EntryID, error) {
	low, err := sr.lib.Lower(b)
	if err != nil {
		return 0, err
	}
	id, err := sr.each(func(rt *Runtime) (p4.EntryID, error) { return rt.insert(low) })
	if err == nil {
		sr.slots[b.Slot] = low
	}
	return id, err
}

// AddRoute fans Runtime.AddRoute out to every shard.
func (sr *ShardedRuntime) AddRoute(prefix packet.Prefix, port uint16) (p4.EntryID, error) {
	return sr.each(func(rt *Runtime) (p4.EntryID, error) { return rt.AddRoute(prefix, port) })
}

// AddDropRoute fans Runtime.AddDropRoute out to every shard.
func (sr *ShardedRuntime) AddDropRoute(prefix packet.Prefix) (p4.EntryID, error) {
	return sr.each(func(rt *Runtime) (p4.EntryID, error) { return rt.AddDropRoute(prefix) })
}

// DelRoute fans Runtime.DelRoute out to every shard.
func (sr *ShardedRuntime) DelRoute(id p4.EntryID) error {
	return sr.eachErr(func(rt *Runtime) error { return rt.DelRoute(id) })
}

// Unbind fans Runtime.Unbind out to every shard.
func (sr *ShardedRuntime) Unbind(stage int, id p4.EntryID) error {
	return sr.eachErr(func(rt *Runtime) error { return rt.Unbind(stage, id) })
}

// ResetSlot fans Runtime.ResetSlot out to every shard and forgets the slot's
// recorded binding.
func (sr *ShardedRuntime) ResetSlot(slot int) error {
	if err := sr.eachErr(func(rt *Runtime) error { return rt.ResetSlot(slot) }); err != nil {
		return err
	}
	delete(sr.slots, slot)
	return nil
}

// FreqSlots returns the notes of the slots whose binding left one, in slot
// order — the slot list MergedSnapshot canonicalises.
func (sr *ShardedRuntime) FreqSlots() []SlotBinding {
	var out []SlotBinding
	for _, low := range sr.slots {
		if low.Note != nil {
			out = append(out, *low.Note)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// MergedFlows is the entries of Read(sr, Flows, slot).
func (sr *ShardedRuntime) MergedFlows(slot int) ([]Entry, error) {
	fs, err := Read(sr, Flows, slot)
	return fs.Entries, err
}

// MergedSnapshot merges the shards' registers (MergeSum cells add,
// MergeDerived cells zero) and canonicalises the result over the recorded
// frequency slots. The returned snapshot is byte-identical to
// CanonicalizeSnapshot applied to a serial switch that processed the same
// packets, which is exactly what the sharded differential tests assert.
func (sr *ShardedRuntime) MergedSnapshot() *p4.Snapshot {
	snap := sr.ss.MergedSnapshot()
	sr.lib.CanonicalizeSnapshot(snap, sr.FreqSlots())
	return snap
}
