package core

import (
	"errors"
	"fmt"
)

// ErrOutOfRange is returned when an observed value does not fit the
// distribution's counter array. Stat4 allocates one counter per possible
// value (Section 2: the tracked distributions inherently have a limited
// number of possible values), so the domain must be sized up front — exactly
// like the STAT_COUNTER_SIZE macro of the P4 library.
var ErrOutOfRange = errors.New("core: value outside distribution domain")

// FreqDist is a frequency-mode distribution: the tracked values are the
// frequencies f_v of each possible value v in [0, size). N counts distinct
// observed values, Xsum the total number of observations, and Xsumsq the sum
// of squared frequencies, maintained with the incremental 2f+1 identity.
//
// Percentile markers registered on the distribution advance by at most one
// value slot per packet (Figure 3), so a marker can lag on sparse
// distributions; Table 3 of the paper (and experiments.Table3 here)
// quantifies that error.
type FreqDist struct {
	freq []uint64
	m    Moments
	pct  []*Percentile
	ent  *Entropy
}

// NewFreqDist returns a frequency distribution over the value domain
// [0, size).
func NewFreqDist(size int) *FreqDist {
	if size <= 0 {
		panic(fmt.Sprintf("core: non-positive FreqDist size %d", size))
	}
	return &FreqDist{freq: make([]uint64, size)}
}

// Size returns the number of possible values (the counter array length).
func (d *FreqDist) Size() int { return len(d.freq) }

// Freq returns the current frequency of value v.
func (d *FreqDist) Freq(v uint64) uint64 {
	if v >= uint64(len(d.freq)) {
		return 0
	}
	return d.freq[v]
}

// Frequencies returns a copy of the counter array. Earlier versions returned
// the live backing slice, which let callers silently corrupt state behind the
// moments and percentile markers; every call site is a cold read path
// (baselines, controller planning), so the copy costs nothing that matters.
func (d *FreqDist) Frequencies() []uint64 {
	out := make([]uint64, len(d.freq))
	copy(out, d.freq)
	return out
}

// Moments returns the distribution's scaled moments.
func (d *FreqDist) Moments() *Moments { return &d.m }

// Observe records one occurrence of value v: the counter for v is
// incremented, the moments updated incrementally, and every registered
// percentile marker advanced by at most one slot.
//
//stat4:datapath
func (d *FreqDist) Observe(v uint64) error {
	if v >= uint64(len(d.freq)) {
		// The sentinel is returned bare: wrapping with fmt.Errorf would
		// allocate on a path reachable per packet (allocfree).
		return ErrOutOfRange
	}
	f := d.freq[v]
	d.m.AddFrequency(f, f == 0)
	d.freq[v] = f + 1
	if d.ent != nil {
		d.ent.observe(f + 1)
	}
	//stat4:exempt:boundedloop markers are registered at configuration time; the emitted program unrolls one stage per marker
	for _, p := range d.pct {
		p.observe(d, v)
	}
	return nil
}

// Reset zeroes all counters, moments and registered percentile markers.
func (d *FreqDist) Reset() {
	for i := range d.freq {
		d.freq[i] = 0
	}
	d.m.Reset()
	for _, p := range d.pct {
		p.reset()
	}
	if d.ent != nil {
		d.ent.Reset()
	}
}

// TrackMedian registers and returns a median marker (the 50th percentile).
func (d *FreqDist) TrackMedian() *Percentile { return d.TrackPercentile(1, 1) }

// TrackPercentile registers a marker for the a/(a+b) quantile expressed as
// the integer ratio a:b of mass below to mass above — the paper's
// generalisation of the median comparison. The median is 1:1; the 90th
// percentile is 9:1 ("the frequency of values lower than p is nine times
// bigger than the frequency of values higher than p"). Both weights must be
// positive.
func (d *FreqDist) TrackPercentile(a, b uint64) *Percentile {
	if a == 0 || b == 0 {
		panic("core: percentile weights must be positive")
	}
	p := &Percentile{lowW: a, highW: b}
	d.pct = append(d.pct, p)
	return p
}

// Percentile tracks one quantile of a frequency distribution online. It
// stores the marker position plus the combined frequency of values strictly
// below and strictly above it, and rebalances by at most one slot per packet.
type Percentile struct {
	lowW, highW uint64 // target ratio low:high, e.g. 1:1 for the median

	idx       uint64 // current marker value
	low, high uint64 // combined frequency below / above idx
	inited    bool
	moves     uint64 // total marker movements (the percentile's change rate)
}

// Value returns the marker's current position. Before any observation it
// returns 0.
func (p *Percentile) Value() uint64 { return p.idx }

// Moves returns how many single-slot movements the marker has made. The
// paper points at percentile change rates as an anomaly signal ("we can
// track values and change rates of percentiles"); a reader samples this
// counter per interval and differences it.
func (p *Percentile) Moves() uint64 { return p.moves }

func (p *Percentile) reset() {
	p.idx, p.low, p.high, p.inited, p.moves = 0, 0, 0, false, 0
}

// observe accounts a new occurrence of v (already counted in d.freq) and then
// rebalances by one slot at most.
//
//stat4:datapath
func (p *Percentile) observe(d *FreqDist, v uint64) {
	if !p.inited {
		// The marker starts at the first observed value, not at the edge
		// of the domain; this is what keeps the early-stream error of
		// Table 3 bounded.
		p.idx = v
		p.inited = true
		return
	}
	switch {
	case v < p.idx:
		p.low++
	case v > p.idx:
		p.high++
	}
	p.step(d)
}

// step applies the paper's rebalancing rule once: with weights a:b, move the
// marker up when a·high > b·(low + f[idx]), down when b·low > a·(high +
// f[idx]). Moving one slot transfers the marker's own frequency to the side
// it leaves behind.
//
//stat4:datapath
func (p *Percentile) step(d *FreqDist) {
	if !p.inited {
		return
	}
	f := d.freq[p.idx]
	switch {
	case p.lowW*p.high > p.highW*(p.low+f) && p.idx+1 < uint64(len(d.freq)):
		p.low += f
		p.idx++
		p.high -= d.freq[p.idx]
		p.moves++
	case p.highW*p.low > p.lowW*(p.high+f) && p.idx > 0:
		p.high += f
		p.idx--
		p.low -= d.freq[p.idx]
		p.moves++
	}
}

// Settle repeatedly applies the rebalancing rule until the marker stops
// moving or maxSteps is reached, returning the number of steps taken. It is
// the "multi-step" ablation partner of the one-step-per-packet rule: a
// switch could only do this by recirculating the packet, which the paper
// rules out ("we want to avoid packet recirculation"). The benchmarks
// quantify what that restriction costs in accuracy and what recirculation
// would cost in work.
//
//stat4:reference multi-step settling needs packet recirculation, which the paper rules out
func (p *Percentile) Settle(d *FreqDist, maxSteps int) int {
	steps := 0
	for steps < maxSteps {
		before := p.idx
		p.step(d)
		if p.idx == before {
			break
		}
		steps++
	}
	return steps
}
