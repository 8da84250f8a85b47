package baseline

import (
	"math"
	"math/rand"
	"testing"
)

func TestMoments(t *testing.T) {
	n, sum, sumsq := Moments([]uint64{1, 2, 3})
	if n != 3 || sum != 6 || sumsq != 14 {
		t.Fatalf("Moments = (%d,%d,%d)", n, sum, sumsq)
	}
}

func TestExactMedian(t *testing.T) {
	// Figure 3's initial distribution over values 0..10: frequencies at
	// index 2:10, 3:2, 6:1, 9:5, 10:6 → 24 values, median = 12th = 3.
	freq := make([]uint64, 11)
	freq[2], freq[3], freq[6], freq[9], freq[10] = 10, 2, 1, 5, 6
	if got := ExactMedian(freq); got != 3 {
		t.Fatalf("ExactMedian = %d, want 3", got)
	}
	// After adding an 8: 25 values, median = 13th = 6 (Figure 3).
	freq[8]++
	if got := ExactMedian(freq); got != 6 {
		t.Fatalf("ExactMedian after add = %d, want 6 (Figure 3)", got)
	}
	if got := ExactMedian(make([]uint64, 4)); got != 0 {
		t.Fatalf("empty median = %d", got)
	}
}

func TestExactPercentile(t *testing.T) {
	freq := make([]uint64, 100)
	for i := range freq {
		freq[i] = 1
	}
	if got := ExactPercentile(freq, 90); got != 89 {
		t.Fatalf("p90 of uniform 0..99 = %d, want 89", got)
	}
	if got := ExactPercentile(freq, 50); got != 49 {
		t.Fatalf("p50 of uniform 0..99 = %d, want 49", got)
	}
	if got := ExactPercentile(freq, 99); got != 98 {
		t.Fatalf("p99 of uniform 0..99 = %d, want 98", got)
	}
}

func TestPercentileOf(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := PercentileOf(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := PercentileOf(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := PercentileOf(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if !math.IsNaN(PercentileOf(nil, 50)) {
		t.Fatal("empty percentile not NaN")
	}
	// Input must be unmodified.
	if xs[0] != 5 {
		t.Fatal("PercentileOf mutated its input")
	}
}

func TestMaxOf(t *testing.T) {
	if MaxOf([]float64{1, 9, 3}) != 9 {
		t.Fatal("MaxOf wrong")
	}
	if !math.IsNaN(MaxOf(nil)) {
		t.Fatal("empty MaxOf not NaN")
	}
}

func TestSqrtErrorVsInput(t *testing.T) {
	// sqrt(2) approximated as 1: |1-1.414|/2 = 20.7% — the Table 2 metric.
	if e := SqrtErrorVsInput(2, 1); math.Abs(e-0.2071) > 0.001 {
		t.Fatalf("SqrtErrorVsInput(2,1) = %v", e)
	}
	if e := SqrtErrorVsInput(0, 5); e != 0 {
		t.Fatalf("zero input error = %v", e)
	}
}

func TestP2QuantileMedianUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewP2Quantile(0.5)
	for i := 0; i < 100000; i++ {
		e.Add(rng.Float64() * 1000)
	}
	if v := e.Value(); math.Abs(v-500) > 15 {
		t.Fatalf("P2 median of U(0,1000) = %.1f", v)
	}
}

func TestP2QuantileP90Normal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewP2Quantile(0.9)
	for i := 0; i < 200000; i++ {
		e.Add(rng.NormFloat64()*10 + 100)
	}
	// The 90th percentile of N(100,10) is 100 + 1.2816*10 ≈ 112.8.
	if v := e.Value(); math.Abs(v-112.8) > 1.5 {
		t.Fatalf("P2 p90 of N(100,10) = %.2f, want ≈112.8", v)
	}
}

func TestP2QuantileSmallSamples(t *testing.T) {
	e := NewP2Quantile(0.5)
	if e.Value() != 0 {
		t.Fatal("empty estimator nonzero")
	}
	for _, x := range []float64{5, 1, 9} {
		e.Add(x)
	}
	if v := e.Value(); v != 5 {
		t.Fatalf("3-sample median = %v, want 5", v)
	}
}
