package stat4p4

import (
	"stat4/internal/core"
	"stat4/internal/intstat"
	"stat4/internal/p4"
)

// This file is the canonical form of the emitted program's registers:
// CanonicalizeSnapshot turns any snapshot of them — one shard's, a merged
// one, a one-shard reference's — into a form in which every derived register
// is a pure function of the counter arrays.
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
// with, the one piece of binding state canonicalisation needs, and the
// measure of the slot's kind, whose recomputed registers the slot also needs
// rebuilt (nil for the frequency family).
type SlotBinding struct {
	Slot    int
	PA, PB  uint64
	measure *measure
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
		for i, c := range cells {
			if c != 0 { // a store would make a zero page resident
				cells[i] = 0
			}
		}
	}
	l.recompute(snap, slots)
}

// recompute is CanonicalizeSnapshot on a snapshot whose MergeDerived
// registers already read zero, as a merged snapshot's do.
func (l *Library) recompute(snap *p4.Snapshot, slots []SlotBinding) {
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
		if m := sb.measure; m != nil && m.rebuild != nil && *m.on(&l.Opts) {
			m.rebuild(l, snap, sb.Slot)
		}
	}
}
