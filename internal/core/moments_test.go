package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stat4/internal/baseline"
)

func TestMomentsAddSample(t *testing.T) {
	var m Moments
	xs := []uint64{2, 5, 7, 7, 11}
	for _, x := range xs {
		m.AddSample(x)
	}
	n, sum, sumsq := baseline.Moments(xs)
	if m.N != n || m.Sum != sum || m.Sumsq != sumsq {
		t.Fatalf("moments (%d,%d,%d), want (%d,%d,%d)", m.N, m.Sum, m.Sumsq, n, sum, sumsq)
	}
	if m.Mean() != sum {
		t.Fatalf("Mean() = %d, want Xsum = %d", m.Mean(), sum)
	}
}

// TestVarianceMatchesDefinition property: N·Xsumsq − Xsum² equals N² times
// the population variance of X (the paper's scaled-variance identity),
// checked against the definition Σ(x − x̄)²/N in float space.
func TestVarianceMatchesDefinition(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var m Moments
		var mean float64
		for _, r := range raw {
			m.AddSample(uint64(r))
			mean += float64(r)
		}
		mean /= float64(len(raw))
		var sq float64
		for _, r := range raw {
			sq += (float64(r) - mean) * (float64(r) - mean)
		}
		want := float64(len(raw)) * sq
		got := float64(m.Variance())
		// Integer vs float rounding only; tolerance proportional to scale.
		return math.Abs(got-want) <= 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestVarianceNonNegative property: the Cauchy–Schwarz inequality holds in
// the integer computation for any sample set.
func TestVarianceNonNegative(t *testing.T) {
	f := func(raw []uint16) bool {
		var m Moments
		for _, r := range raw {
			m.AddSample(uint64(r))
		}
		if m.N == 0 {
			return m.Variance() == 0
		}
		v := m.Variance()
		return v <= ^uint64(0) // always true; the real check is no panic/wrap below
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// All-equal samples must give exactly zero variance.
	var m Moments
	for i := 0; i < 100; i++ {
		m.AddSample(42)
	}
	if v := m.Variance(); v != 0 {
		t.Fatalf("variance of constant distribution = %d, want 0", v)
	}
}

func TestVarianceSaturatesInsteadOfWrapping(t *testing.T) {
	m := Moments{N: 1 << 40, Sumsq: 1 << 40}
	if v := m.Variance(); v != ^uint64(0) {
		t.Fatalf("overflowing variance = %d, want saturation", v)
	}
}

func TestStdDevLazy(t *testing.T) {
	var m Moments
	m.AddSample(1)
	m.AddSample(9)
	sd1 := m.StdDev()
	for i := 0; i < 10; i++ {
		if m.StdDev() != sd1 {
			t.Fatal("cached sd changed without new data")
		}
	}
	if m.SDRecomputes != 1 {
		t.Fatalf("sd recomputed %d times for 11 reads of unchanged moments, want 1", m.SDRecomputes)
	}
	m.AddSample(100)
	_ = m.StdDev()
	if m.SDRecomputes != 2 {
		t.Fatalf("sd recomputed %d times after second change, want 2", m.SDRecomputes)
	}
}

func TestStdDevEager(t *testing.T) {
	var m Moments
	m.AddSample(1)
	m.AddSample(9)
	for i := 0; i < 5; i++ {
		m.StdDevEager()
	}
	if m.SDRecomputes != 5 {
		t.Fatalf("eager sd recomputed %d times for 5 reads, want 5", m.SDRecomputes)
	}
	if m.StdDevEager() != m.StdDev() {
		t.Fatal("eager and lazy sd disagree")
	}
}

// TestOutlierAgainstFloat property: the integer outlier test agrees with the
// float computation N·x ≷ Xsum + k·σ(NX) up to the sqrt approximation, so we
// compare against the float test that uses the same approximate σ.
func TestOutlierAgainstFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var m Moments
		for i := 0; i < 50; i++ {
			m.AddSample(uint64(100 + rng.Intn(20)))
		}
		for probe := uint64(50); probe < 200; probe += 7 {
			want := float64(m.N)*float64(probe) > float64(m.Sum)+2*float64(m.StdDev())
			if got := m.IsOutlierAbove(probe, 2); got != want {
				t.Fatalf("IsOutlierAbove(%d) = %v, float says %v (N=%d Sum=%d sd=%d)",
					probe, got, want, m.N, m.Sum, m.StdDev())
			}
		}
	}
}

func TestOutlierDetectsSpike(t *testing.T) {
	var m Moments
	// Stable rate around 100 packets per interval.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		m.AddSample(uint64(95 + rng.Intn(11)))
	}
	if m.IsOutlierAbove(105, 2) {
		t.Fatal("in-range value flagged as outlier")
	}
	if !m.IsOutlierAbove(200, 2) {
		t.Fatal("2x spike not flagged as outlier")
	}
}

func TestMomentsReset(t *testing.T) {
	var m Moments
	m.AddSample(3)
	m.AddSample(4)
	_ = m.StdDev()
	m.Reset()
	if m.N != 0 || m.Sum != 0 || m.Sumsq != 0 || m.Variance() != 0 || m.StdDev() != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestAddFrequencyIdentity(t *testing.T) {
	// Build a frequency stream and check moments equal the from-scratch
	// definition over the final frequency vector.
	var m Moments
	freq := make([]uint64, 16)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := rng.Intn(len(freq))
		m.AddFrequency(freq[v], freq[v] == 0)
		freq[v]++
	}
	var distinct, total, sumsq uint64
	for _, f := range freq {
		if f > 0 {
			distinct++
		}
		total += f
		sumsq += f * f
	}
	if m.N != distinct || m.Sum != total || m.Sumsq != sumsq {
		t.Fatalf("frequency moments (%d,%d,%d), want (%d,%d,%d)",
			m.N, m.Sum, m.Sumsq, distinct, total, sumsq)
	}
}

func TestNewMomentsDerivedMeasuresFresh(t *testing.T) {
	m := NewMoments(4, 20, 120)
	// var = 4*120 - 400 = 80; sd must be computed, not a stale zero.
	if m.Variance() != 80 {
		t.Fatalf("Variance = %d", m.Variance())
	}
	if m.StdDev() == 0 {
		t.Fatal("NewMoments sd stale")
	}
}
