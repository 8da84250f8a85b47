// Package baseline provides the floating-point reference statistics that the
// paper's host-side validation computes "in software": exact moments,
// percentiles over frequency data, entropy and the fractional square root. None of it is implementable on a P4 target; it exists to
// quantify the error of the integer algorithms in internal/intstat and
// internal/core (Tables 2 and 3) and to validate the echo application
// (Figure 5).
package baseline

import (
	"math"
	"sort"
)

// Moments computes N, Xsum and Xsumsq of a sample slice exactly, the values
// the echo host compares against the switch registers.
//
//stat4:exempt:reachable (a) test reference: the exact moments core's Moments, Window and SampleDist tests check the integer code against
func Moments(xs []uint64) (n, sum, sumsq uint64) {
	n = uint64(len(xs))
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	return n, sum, sumsq
}

// ExactMedian returns the exact median value of a frequency distribution:
// the value of the ⌈total/2⌉-th observation in sorted order. It returns 0
// for an empty distribution.
func ExactMedian(freq []uint64) uint64 {
	return ExactPercentile(freq, 50)
}

// ExactPercentile returns the value at the q-th percentile (1 ≤ q ≤ 99) of a
// frequency distribution: the smallest value v such that at least q% of the
// observations are ≤ v. It returns 0 for an empty distribution.
func ExactPercentile(freq []uint64, q int) uint64 {
	var total uint64
	for _, f := range freq {
		total += f
	}
	if total == 0 {
		return 0
	}
	// rank = ceil(total*q/100), at least 1.
	rank := (total*uint64(q) + 99) / 100
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for v, f := range freq {
		cum += f
		if cum >= rank {
			return uint64(v)
		}
	}
	return uint64(len(freq) - 1)
}

// PercentileOf returns the p-th percentile of a float sample slice using the
// nearest-rank method; it is used to summarise error distributions for the
// tables. p is in [0,100]; the slice is not modified.
func PercentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// MaxOf returns the maximum of a float slice (NaN for an empty slice).
func MaxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Entropy returns the Shannon entropy, in bits, of a frequency distribution:
// H = log2(T) − (1/T)·Σ f·log2(f) with T = Σ f. It returns 0 for an empty
// distribution. This is the float64 ground truth for core.Entropy's
// fixed-point accumulator.
//
//stat4:exempt:reachable (a) test reference: core's and stat4p4's entropy tests check the fixed-point entropy against it
func Entropy(freq []uint64) float64 {
	var total uint64
	for _, f := range freq {
		total += f
	}
	if total == 0 {
		return 0
	}
	var s float64
	for _, f := range freq {
		if f > 1 {
			s += float64(f) * math.Log2(float64(f))
		}
	}
	return math.Log2(float64(total)) - s/float64(total)
}

// SqrtErrorVsInput returns the absolute error of the approximation against
// the fractional square root, expressed as a fraction of the input number:
// |a − √y| / y. Matching the published Table 2 values against the algorithm
// shows this is the paper's metric (e.g. √2 → 1 gives 0.414/2 ≈ 20%, the
// table's 1–10 maximum, and its footnote — high percentage error but low
// absolute error for small numbers — only reads naturally for an
// input-relative figure).
func SqrtErrorVsInput(y, a uint64) float64 {
	if y == 0 {
		return 0
	}
	t := math.Sqrt(float64(y))
	return math.Abs(float64(a)-t) / float64(y)
}
