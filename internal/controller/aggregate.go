package controller

import (
	"errors"
	"fmt"

	"stat4/internal/core"
	"stat4/internal/stat4p4"
)

// This file implements the Section 5 direction of "performing statistical
// analyses across multiple switches": the controller combines the
// distributions maintained by several Stat4 switches into network-wide
// measures. Two cases have different mathematics:
//
//   - Disjoint populations (each switch tracks different values of interest,
//     e.g. per-rack time-series): the combined distribution is the
//     concatenation, so N, Xsum and Xsumsq — and therefore variance and the
//     outlier threshold — add directly. Only the tiny metadata registers
//     cross the network.
//
//   - Shared populations (the same value can be observed at several
//     switches, e.g. per-destination counters on redundant paths): the
//     per-value counters must be added before the moments are recomputed,
//     because Σ(f1+f2)² ≠ Σf1² + Σf2². This needs the counter arrays, i.e.
//     a sketch-style pull — the hybrid the paper's Section 5 envisions,
//     triggered only when cross-switch analysis is actually wanted.

// ErrShape is returned when merge inputs disagree on their domains.
var ErrShape = errors.New("controller: mismatched distribution shapes")

// MergeDisjoint combines moments of distributions over disjoint populations
// by concatenation.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func MergeDisjoint(ms ...stat4p4.MomentsSnapshot) core.Moments {
	var n, sum, sumsq uint64
	for _, m := range ms {
		n += m.N
		sum += m.Xsum
		sumsq += m.Xsumsq
	}
	return core.NewMoments(n, sum, sumsq)
}

// MergeShared combines same-domain frequency counter arrays by per-value
// addition and returns the merged counters with their recomputed moments.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func MergeShared(counterSets ...[]uint64) ([]uint64, core.Moments, error) {
	if len(counterSets) == 0 {
		return nil, core.Moments{}, fmt.Errorf("%w: no inputs", ErrShape)
	}
	size := len(counterSets[0])
	for i, cs := range counterSets {
		if len(cs) != size {
			return nil, core.Moments{}, fmt.Errorf("%w: input %d has %d cells, want %d",
				ErrShape, i, len(cs), size)
		}
	}
	merged := make([]uint64, size)
	for _, cs := range counterSets {
		for v, f := range cs {
			merged[v] += f
		}
	}
	return merged, countersMoments(merged), nil
}

// countersMoments recomputes N, Σx and Σx² from per-value counters — the
// second half of the add-counters-then-recompute order that keeps Σ(f1+f2)²
// exact.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func countersMoments(counters []uint64) core.Moments {
	var n, sum, sumsq uint64
	for _, f := range counters {
		if f != 0 {
			n++
		}
		sum += f
		sumsq += f * f
	}
	return core.NewMoments(n, sum, sumsq)
}

// PullShared reads the same slot's counters from several runtimes and merges
// them — the controller-side convenience for MergeShared.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func PullShared(slot int, rts ...*stat4p4.Runtime) ([]uint64, core.Moments, error) {
	sets := make([][]uint64, 0, len(rts))
	for _, rt := range rts {
		cs, err := stat4p4.Read(rt, stat4p4.Counters, slot)
		if err != nil {
			return nil, core.Moments{}, err
		}
		sets = append(sets, cs)
	}
	return MergeShared(sets...)
}

// Report is one switch's per-epoch counter pull as it arrives at the
// aggregation point. Reports travel over a control network: they can arrive
// out of epoch order, and retransmissions can deliver the same report twice.
type Report struct {
	Switch   string
	Epoch    uint64
	Counters []uint64
}

type reportKey struct {
	sw    string
	epoch uint64
}

// Aggregator folds per-switch, per-epoch counter reports into one shared
// distribution, deduplicating by (switch, epoch): the first report for a key
// wins, retransmissions are counted and ignored. Because per-value counter
// addition is commutative and associative (the same law the sharded
// datapath's merge rests on), arrival order never affects the merged state —
// out-of-order epochs need no reordering buffer.
type Aggregator struct {
	size     int
	merged   []uint64
	seen     map[reportKey]bool
	accepted uint64
	dupes    uint64
}

// NewAggregator returns an empty aggregator over counter arrays of the given
// cell count.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func NewAggregator(size int) *Aggregator {
	return &Aggregator{
		size:   size,
		merged: make([]uint64, size),
		seen:   make(map[reportKey]bool),
	}
}

// Add folds one report in. It returns false with no state change when the
// (switch, epoch) pair was already accepted, and an error when the report's
// shape does not match the aggregator's domain.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func (a *Aggregator) Add(r Report) (bool, error) {
	if len(r.Counters) != a.size {
		return false, fmt.Errorf("%w: report from %q epoch %d has %d cells, want %d",
			ErrShape, r.Switch, r.Epoch, len(r.Counters), a.size)
	}
	k := reportKey{sw: r.Switch, epoch: r.Epoch}
	if a.seen[k] {
		a.dupes++
		return false, nil
	}
	a.seen[k] = true
	a.accepted++
	for v, f := range r.Counters {
		a.merged[v] += f
	}
	return true, nil
}

// Merged returns the combined counters and their recomputed moments —
// per-value addition first, moments second, the MergeShared order that keeps
// Σ(f1+f2)² exact.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func (a *Aggregator) Merged() ([]uint64, core.Moments) {
	out := append([]uint64(nil), a.merged...)
	return out, countersMoments(out)
}

// Accepted returns how many reports were folded in.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func (a *Aggregator) Accepted() uint64 { return a.accepted }

// Duplicates returns how many retransmitted reports were ignored.
//
//stat4:exempt:reachable (b) paper concept: the network-wide aggregation of Section 5
func (a *Aggregator) Duplicates() uint64 { return a.dupes }
