package telemetry

import (
	"stat4/internal/core"
	"stat4/internal/intstat"
)

// HistFracBits is the sub-octave resolution of a Hist: each power-of-two
// bucket is split into 2^HistFracBits linear sub-buckets, the fixed-point
// fraction width handed to intstat.Log2Fixed.
const HistFracBits = 2

// HistBuckets is the counter-array size of a Hist: 64 possible exponents ×
// 2^HistFracBits sub-buckets covers every uint64 sample, so Observe can never
// fall outside the domain (the STAT_COUNTER_SIZE sizing rule of the paper,
// applied to the repo's own metrics).
const HistBuckets = 64 << HistFracBits

// Hist tracks one distribution of non-negative integer samples (nanoseconds,
// queue depths) by dogfooding Stat4: samples are mapped to log2 fixed-point
// buckets with intstat.Log2Fixed, the buckets feed a core.FreqDist whose
// Figure 3 percentile markers track P50 and P99 online, and a core.Moments in
// sample mode accumulates the scaled moments of the log-domain values with
// the lazy standard deviation of Section 3. Everything on the recording path
// is integer-only and allocation-free after construction.
//
// Exact count, sum, min and max of the raw samples are kept alongside, so
// snapshots can report a precise mean without the recording path ever
// dividing.
type Hist struct {
	dist     *core.FreqDist
	p50, p99 *core.Percentile
	logm     core.Moments

	count uint64
	sum   uint64
	min   uint64
	max   uint64
}

// NewHist returns an empty histogram with P50 and P99 markers registered.
func NewHist() *Hist {
	d := core.NewFreqDist(HistBuckets)
	return &Hist{
		dist: d,
		p50:  d.TrackPercentile(1, 1),
		p99:  d.TrackPercentile(99, 1),
		min:  ^uint64(0),
	}
}

// Observe records one sample. The bucket index is the sample's log2 in
// HistFracBits fixed point, which by construction lies in [0, HistBuckets),
// so the FreqDist error path is unreachable and recording never allocates.
//
//stat4:datapath
func (h *Hist) Observe(v uint64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	b := intstat.Log2Fixed(v, HistFracBits)
	_ = h.dist.Observe(b)
	h.logm.AddSample(b)
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the exact sum of the raw samples.
func (h *Hist) Sum() uint64 { return h.sum }

// Min returns the smallest recorded sample, or 0 before any sample.
func (h *Hist) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Hist) Max() uint64 { return h.max }

// P50 returns the online median estimate in raw-sample units: the marker's
// bucket mapped back to the bucket's lower bound. Like the markers it is
// built on, it can lag a burst by one bucket per sample (Figure 3).
func (h *Hist) P50() uint64 { return BucketLow(h.p50.Value()) }

// P99 returns the online 99th-percentile estimate in raw-sample units.
func (h *Hist) P99() uint64 { return BucketLow(h.p99.Value()) }

// P50Moves and P99Moves return the markers' total single-slot movements —
// the percentile change rates the paper points at as an anomaly signal,
// here doubling as a measure of how (un)stable the tracked latency is.
func (h *Hist) P50Moves() uint64 { return h.p50.Moves() }

// P99Moves returns the 99th-percentile marker's movement count.
func (h *Hist) P99Moves() uint64 { return h.p99.Moves() }

// LogMoments returns the scaled moments of the log2 fixed-point bucket
// values (sample mode: N = samples, Xsum = Σ log2(x)·2^HistFracBits). Their
// lazy standard deviation measures the distribution's spread in octaves;
// Moments().SDRecomputes counts how often the Figure 2 square root actually
// ran, making the lazy-σ design observable in the snapshot itself.
func (h *Hist) LogMoments() *core.Moments { return &h.logm }

// Reset clears the histogram, its markers and moments.
func (h *Hist) Reset() {
	h.dist.Reset()
	h.logm.Reset()
	h.count, h.sum, h.max = 0, 0, 0
	h.min = ^uint64(0)
}

// BucketLow inverts the Log2Fixed bucket mapping to the smallest raw value
// that lands in bucket b (bucket 0 holds both 0 and 1; 0 is returned). It is
// integer-only like the rest of the package but runs on the snapshot path,
// outside the per-packet closure.
func BucketLow(b uint64) uint64 {
	e := b >> HistFracBits
	m := b & (1<<HistFracBits - 1)
	switch {
	case b == 0:
		return 0
	case e < HistFracBits:
		// Small exponents carry the mantissa left-shifted into the fraction.
		return 1<<e | m>>(HistFracBits-e)
	default:
		return (1<<HistFracBits | m) << (e - HistFracBits)
	}
}

// MergeFrom folds another histogram into this one, as if every sample o
// recorded had been recorded here: counts, sums and extrema combine
// exactly, the bucket distributions merge cell-wise (core.FreqDist.MergeFrom
// re-derives the P50/P99 markers from the combined counters), marker
// movement counts sum as total marker work across replicas, and the
// log-domain moments merge additively. The shapes always match — every Hist
// has HistBuckets cells — so the only error source is a foreign dist, which
// cannot be constructed through this package.
//
// It is the aggregation path for per-shard metrics: each shard records into
// its own Hist single-writer, and a merged view is built after processing
// stops (or from quiesced snapshots).
func (h *Hist) MergeFrom(o *Hist) error {
	if err := h.dist.MergeFrom(o.dist); err != nil {
		return err
	}
	h.p50.AddMoves(o.p50.Moves())
	h.p99.AddMoves(o.p99.Moves())
	h.logm.MergeFrom(&o.logm)
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	return nil
}
