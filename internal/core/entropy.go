package core

import "stat4/internal/intstat"

// Entropy tracks the Shannon entropy of a frequency distribution in fixed
// point, integer-only — the normalized-entropy DDoS signal of Ding et al.
// (the paper's reference [7]), built on the same exponent/mantissa log2 the
// library already uses.
//
// The tracker maintains the accumulator
//
//	S = Σ_v f_v · Log2Fixed(f_v, frac)
//
// incrementally: when a counter steps f−1 → f, S gains f·L(f) − (f−1)·L(f−1),
// two log lookups and two multiplies — per-packet work a switch can do. The
// entropy itself never needs a division on the datapath: with T = Σ f_v
// (frequency-mode Xsum),
//
//	H·T = T·L(T) − S
//
// so "entropy below h0" is the multiply-and-compare T·L(T) − S < h0·T that
// the emitted program makes, and the normalization by log2(domain) folds
// into h0 at configuration time.
//
// All arithmetic wraps mod 2^64, like the register accumulators it models;
// an incremental S therefore always equals a from-scratch recompute over the
// same counters (Rederive), which is what makes sharded merges exact.
type Entropy struct {
	frac uint
	sum  uint64 // S = Σ f·Log2Fixed(f, frac), wrapping
}

// TrackEntropy registers an entropy tracker with frac fractional bits on the
// distribution and returns it. Subsequent Observe calls maintain the
// accumulator; counters already present are folded in immediately. frac must
// not exceed intstat.Log2MaxFrac.
//
//stat4:exempt:reachable (a) test reference: core's and stat4p4's entropy tests attach the reference tracker with it
func (d *FreqDist) TrackEntropy(frac uint) *Entropy {
	if frac > intstat.Log2MaxFrac {
		panic("core: entropy fraction exceeds Log2MaxFrac")
	}
	e := &Entropy{frac: frac}
	e.Rederive(d.freq)
	d.ent = e
	return e
}

// Sum returns the raw accumulator S = Σ f·Log2Fixed(f, frac). It is the
// value the emitted program keeps in its entropy register.
//
//stat4:exempt:reachable (a) test reference: core's and stat4p4's entropy tests compare the accumulator through it
func (e *Entropy) Sum() uint64 { return e.sum }

// observe accounts one counter stepping to fNew (= old count + 1).
//
//stat4:datapath
func (e *Entropy) observe(fNew uint64) {
	e.sum += fNew*intstat.Log2Fixed(fNew, e.frac) -
		(fNew-1)*intstat.Log2Fixed(fNew-1, e.frac)
}

// Reset zeroes the accumulator.
func (e *Entropy) Reset() { e.sum = 0 }

// Rederive recomputes the accumulator from a counter array — the merge path:
// S is not additive across shards (log is not linear), so after counters
// merge cell-wise the accumulator rebuilds by one bounded walk, exactly like
// percentile markers re-derive. The result is bit-identical to what
// incremental maintenance over the merged stream would have produced.
//
//stat4:reference merging runs controller-side, once per interval, not per packet
func (e *Entropy) Rederive(freq []uint64) {
	var s uint64
	for _, f := range freq {
		if f > 1 { // L(0) = L(1) = 0 contribute nothing
			s += f * intstat.Log2Fixed(f, e.frac)
		}
	}
	e.sum = s
}
