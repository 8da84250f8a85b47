package core

import "fmt"

// This file gives every Stat4 distribution an explicit integer-only merge
// operation. Mergeability falls out of the paper's scaled-moments design:
// Xsum and Xsumsq are plain sums and frequency arrays are plain counters, so
// K replicas of a distribution — one per switch pipeline, one per core —
// combine by addition, and the derived measures (variance, standard
// deviation, percentiles) are recomputed from the combined state. Merging
// runs on the controller side, once per collection interval, never per
// packet; the functions here are therefore reference-side code, free to
// loop over counter arrays.

// ErrShapeMismatch is returned when two distributions cannot be merged
// because their configurations differ (domain size, capacity, or window
// alignment).
var ErrShapeMismatch = fmt.Errorf("core: merge shape mismatch")

// MergeFrom folds another sample-mode Moments into m by adding the three
// scaled moments. This is exact: N, Xsum and Xsumsq are sums over disjoint
// sample sets, so addition over shards equals serial accumulation. The
// derived standard deviation is marked stale and recomputed lazily on the
// next read.
//
// Frequency-mode moments are NOT additive this way — two shards that both
// saw value v each count it in N, and Σ(f+g)² ≠ Σf² + Σg². Merge
// frequency-mode state with FreqDist.MergeFrom, which recomputes the
// moments from the combined counters.
//
//stat4:reference merging runs controller-side, once per interval, not per packet
func (m *Moments) MergeFrom(o *Moments) {
	m.N += o.N
	m.Sum += o.Sum
	m.Sumsq += o.Sumsq
	m.dirty = true
}

// MergeFrom folds another frequency distribution over the same value domain
// into d: counters add cell-wise and the moments are adjusted with the exact
// incremental identities
//
//	N      += 1 for each value present in o but not yet in d
//	Xsum   += g             (g = o's counter)
//	Xsumsq += 2·f·g + g²    ((f+g)² − f² for d's prior counter f)
//
// so the merged N/Xsum/Xsumsq equal what serial processing of the combined
// stream would have produced, bit for bit. Registered percentile markers are
// re-derived from the merged counter array by a bounded walk (Rederive);
// their positions are then within the one-slot-per-packet guarantee of the
// serial markers, but their Moves counters keep their pre-merge values — a
// marker's path is an artefact of packet order, which a merge has no notion
// of.
//
// Merging a distribution with a different domain size returns
// ErrShapeMismatch and leaves d untouched.
//
//stat4:reference merging runs controller-side, once per interval, not per packet
func (d *FreqDist) MergeFrom(o *FreqDist) error {
	if len(d.freq) != len(o.freq) {
		return fmt.Errorf("%w: FreqDist sizes %d and %d", ErrShapeMismatch, len(d.freq), len(o.freq))
	}
	for v, g := range o.freq {
		if g == 0 {
			continue
		}
		f := d.freq[v]
		if f == 0 {
			d.m.N++
		}
		d.freq[v] = f + g
		d.m.Sum += g
		d.m.Sumsq += 2*f*g + g*g
	}
	d.m.dirty = true
	for _, p := range d.pct {
		p.Rederive(d)
	}
	if d.ent != nil {
		d.ent.Rederive(d.freq)
	}
	return nil
}

// MergeFrom folds another sample distribution into d by appending o's
// samples and adding the moments (exact, as for sample-mode Moments). It
// returns ErrShapeMismatch when d lacks the free cells to hold o's samples.
//
//stat4:reference merging runs controller-side, once per interval, not per packet
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2 (SampleDist)
func (d *SampleDist) MergeFrom(o *SampleDist) error {
	if d.n+o.n > len(d.cells) {
		return fmt.Errorf("%w: %d+%d samples exceed capacity %d", ErrShapeMismatch, d.n, o.n, len(d.cells))
	}
	copy(d.cells[d.n:], o.cells[:o.n])
	d.n += o.n
	d.m.MergeFrom(&o.m)
	return nil
}

// RederiveMarker recomputes an a:b percentile marker position directly from
// a frequency array by the bounded walk the one-step rule would converge to:
// start at the smallest present value with the entire remaining mass above,
// and apply the paper's move-up test until it no longer fires. It returns
// the marker position plus the mass strictly below and strictly above it,
// and ok=false on an empty distribution.
//
// The walk visits each value slot at most once, so it is bounded by the
// domain size — controller-side work, like the register pulls it follows.
//
//stat4:reference merging runs controller-side, once per interval, not per packet
func RederiveMarker(freq []uint64, a, b uint64) (idx, low, high uint64, ok bool) {
	var total uint64
	for _, f := range freq {
		total += f
	}
	if total == 0 {
		return 0, 0, 0, false
	}
	for freq[idx] == 0 {
		idx++
	}
	high = total - freq[idx]
	for a*high > b*(low+freq[idx]) && idx+1 < uint64(len(freq)) {
		low += freq[idx]
		idx++
		high -= freq[idx]
	}
	return idx, low, high, true
}

// Rederive repositions the marker from the distribution's current counters
// via RederiveMarker, preserving the Moves counter (marker movement is a
// property of the packet sequence, which rederivation does not replay). An
// empty distribution resets the marker to its uninitialized state.
//
//stat4:reference merging runs controller-side, once per interval, not per packet
func (p *Percentile) Rederive(d *FreqDist) {
	idx, low, high, ok := RederiveMarker(d.freq, p.lowW, p.highW)
	if !ok {
		p.idx, p.low, p.high, p.inited = 0, 0, 0, false
		return
	}
	p.idx, p.low, p.high, p.inited = idx, low, high, true
}

// AddMoves folds another replica's marker-movement count into this marker.
// It is the additive half of a marker merge: positions re-derive from the
// combined counters (Rederive), while movement counts — total marker work
// across replicas, the percentile change rate the paper tracks — simply sum.
//
//stat4:reference merging runs controller-side, once per interval, not per packet
func (p *Percentile) AddMoves(n uint64) { p.moves += n }
