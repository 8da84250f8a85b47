package core

import (
	"math"
	"math/rand"
	"testing"

	"stat4/internal/baseline"
	"stat4/internal/intstat"
)

// entropyBits converts the tracker state to float bits for comparison:
// H = ScaledBits / (T·2^frac).
func entropyBits(e *Entropy, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(e.ScaledBits(total)) / (float64(total) * float64(uint64(1)<<e.Frac()))
}

// TestEntropyVsBaseline checks the fixed-point tracker against the float64
// ground truth on characteristic shapes: uniform (maximum entropy), single
// value (zero), and skewed mixes.
func TestEntropyVsBaseline(t *testing.T) {
	const frac = 16
	shapes := map[string]func(d *FreqDist){
		"uniform": func(d *FreqDist) {
			for i := 0; i < 64; i++ {
				for k := 0; k < 10; k++ {
					d.Observe(uint64(i))
				}
			}
		},
		"single": func(d *FreqDist) {
			for k := 0; k < 640; k++ {
				d.Observe(7)
			}
		},
		"skewed": func(d *FreqDist) {
			r := rand.New(rand.NewSource(1))
			for k := 0; k < 2000; k++ {
				v := uint64(r.Intn(8))
				if r.Intn(4) == 0 {
					v = uint64(r.Intn(64))
				}
				d.Observe(v)
			}
		},
	}
	for name, fill := range shapes {
		d := NewFreqDist(64)
		e := d.TrackEntropy(frac)
		fill(d)
		total := d.Moments().Sum
		got := entropyBits(e, total)
		want := baseline.Entropy(d.Frequencies())
		// The per-cell log undershoots by < 0.0861 bits; the weighted
		// combination of undershoots stays within twice that.
		if math.Abs(got-want) > 0.18 {
			t.Errorf("%s: entropy ≈ %.4f bits, baseline %.4f", name, got, want)
		}
		if name == "single" && e.ScaledBits(total) != 0 {
			t.Errorf("single value: ScaledBits = %d, want exactly 0", e.ScaledBits(total))
		}
	}
}

// TestEntropyIncrementalMatchesRederive property: after any observation
// sequence the incrementally maintained accumulator equals a from-scratch
// recompute, bit for bit — the identity the shard-merge path relies on.
func TestEntropyIncrementalMatchesRederive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		d := NewFreqDist(32)
		e := d.TrackEntropy(12)
		n := r.Intn(500)
		for i := 0; i < n; i++ {
			d.Observe(uint64(r.Intn(32)))
		}
		var ref Entropy
		ref.frac = 12
		ref.Rederive(d.Frequencies())
		if e.Sum() != ref.Sum() {
			t.Fatalf("trial %d: incremental S = %d, rederived %d", trial, e.Sum(), ref.Sum())
		}
	}
}

// TestEntropyMergeExact property: shard two streams, merge, and the
// accumulator equals the serial run's, bit for bit.
func TestEntropyMergeExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		serial := NewFreqDist(48)
		se := serial.TrackEntropy(16)
		a, b := NewFreqDist(48), NewFreqDist(48)
		ae := a.TrackEntropy(16)
		b.TrackEntropy(16)
		for i := 0; i < 400; i++ {
			v := uint64(r.Intn(48))
			serial.Observe(v)
			if v%2 == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
		}
		if err := a.MergeFrom(b); err != nil {
			t.Fatal(err)
		}
		if ae.Sum() != se.Sum() {
			t.Fatalf("trial %d: merged S = %d, serial %d", trial, ae.Sum(), se.Sum())
		}
	}
}

// TestEntropyErrorTable sweeps fractional widths and bounds the worst
// absolute entropy error vs the float64 baseline over a family of zipf-ish
// mixes; the committed numbers live in DESIGN.md. The error is dominated by
// the log2 linearisation (~0.0861 bits weighted twice, once inside S and
// once in L(T)), not by the fraction, once frac ≥ 8.
func TestEntropyErrorTable(t *testing.T) {
	fracs := []uint{4, 8, 12, 16, 24, 32}
	bounds := map[uint]float64{4: 0.30, 8: 0.20, 12: 0.18, 16: 0.18, 24: 0.18, 32: 0.18}
	r := rand.New(rand.NewSource(4))
	streams := make([][]uint64, 12)
	for i := range streams {
		n := 500 + r.Intn(3000)
		vals := make([]uint64, n)
		for j := range vals {
			// Mix a heavy value with a broad tail, sweeping concentration.
			if r.Intn(12) < i {
				vals[j] = 5
			} else {
				vals[j] = uint64(r.Intn(128))
			}
		}
		streams[i] = vals
	}
	for _, frac := range fracs {
		var worst float64
		for _, vals := range streams {
			d := NewFreqDist(128)
			e := d.TrackEntropy(frac)
			for _, v := range vals {
				d.Observe(v)
			}
			total := d.Moments().Sum
			err := math.Abs(entropyBits(e, total) - baseline.Entropy(d.Frequencies()))
			if err > worst {
				worst = err
			}
		}
		if worst > bounds[frac] {
			t.Errorf("frac %d: worst abs error %.4f bits exceeds bound %.2f", frac, worst, bounds[frac])
		}
		t.Logf("frac %2d: worst abs error %.4f bits", frac, worst)
	}
}

// TestTrackEntropyFoldsExisting pins that attaching the tracker after
// observations folds the standing counters in.
func TestTrackEntropyFoldsExisting(t *testing.T) {
	d := NewFreqDist(16)
	for i := 0; i < 100; i++ {
		d.Observe(uint64(i % 4))
	}
	e := d.TrackEntropy(16)
	var ref Entropy
	ref.frac = 16
	ref.Rederive(d.Frequencies())
	if e.Sum() != ref.Sum() {
		t.Fatalf("late attach S = %d, want %d", e.Sum(), ref.Sum())
	}
	d.Reset()
	if e.Sum() != 0 {
		t.Fatal("Reset did not clear the entropy accumulator")
	}
}

// ScaledBits returns H·T in fixed point: T·L(T) − S for T total
// observations. Because Log2Fixed is monotone and every f_v ≤ T, the
// difference is non-negative whenever the accumulator has not wrapped. A
// concentrated distribution (all mass on one value) gives exactly 0; a
// uniform one approaches T·log2(domain)·2^frac. The emitted program compares
// it against h0·T; the tests read the tracker's entropy through it.
func (e *Entropy) ScaledBits(total uint64) uint64 {
	return total*intstat.Log2Fixed(total, e.frac) - e.sum
}

// Frac returns the fractional width of the fixed-point logs.
func (e *Entropy) Frac() uint { return e.frac }
