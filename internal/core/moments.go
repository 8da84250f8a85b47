// Package core is the reference implementation of Stat4, the in-switch
// statistics library of "Stats 101 in P4: Towards In-Switch Anomaly
// Detection" (HotNets '21). It tracks distributions of values of interest
// extracted from traffic and maintains their statistical measures online,
// using only operations a P4 target supports: additions, subtractions,
// comparisons, bitwise logic and constant shifts. There is no division, no
// floating point, and every update is a bounded straight-line computation.
//
// The central trick (Section 2 of the paper) is to track the scaled
// distribution NX = {N·x1, …, N·xN} instead of X: the mean of NX is exactly
// Xsum = Σxi (no division), and its variance is N·Xsumsq − Xsum² where
// Xsumsq = Σxi². Anomaly checks compare relative values, so the scaling
// cancels out.
//
// The same algorithms are emitted as P4-style IR by internal/stat4p4 and run
// inside the switch simulator of internal/p4; tests cross-validate the two.
package core

import (
	"math/bits"

	"stat4/internal/intstat"
)

// Moments maintains N, Xsum and Xsumsq for a distribution X, plus the derived
// scaled variance and standard deviation of NX. The standard deviation is
// computed lazily: the MSB hunt behind the approximate square root runs only
// when a reader asks for a value after the moments changed, mirroring Stat4's
// "lazy computation of standard deviation" (Section 3).
type Moments struct {
	N     uint64 // number of values in the distribution
	Sum   uint64 // Xsum  = Σ xi — also the mean of NX
	Sumsq uint64 // Xsumsq = Σ xi²

	sd    uint64 // cached standard deviation of NX
	dirty bool   // moments changed since sd was computed

	// SDRecomputes counts how many times the square root actually ran; the
	// lazy-vs-eager ablation reads it.
	SDRecomputes uint64
}

// NewMoments builds moments directly from already-known N, Xsum and Xsumsq
// (for example, values read back from switch registers or merged across
// switches). The derived measures are marked stale so the first read
// computes them.
//
//stat4:exempt:reachable (b) paper concept: the controller's Section 5 aggregation builds merged moments with it
func NewMoments(n, sum, sumsq uint64) Moments {
	return Moments{N: n, Sum: sum, Sumsq: sumsq, dirty: true}
}

// AddSample folds a new value into the moments: N += 1, Xsum += x,
// Xsumsq += x².
//
//stat4:datapath
func (m *Moments) AddSample(x uint64) {
	m.N++
	m.Sum += x
	m.Sumsq += x * x
	m.dirty = true
}

// AddFrequency adjusts the moments for a frequency-mode distribution where
// the counter for some value moves from f to f+1: Xsum += 1 and
// Xsumsq += 2f + 1 (the incremental identity that avoids runtime squaring).
// newValue reports whether this is the first observation of the value, in
// which case N grows.
//
//stat4:datapath
func (m *Moments) AddFrequency(f uint64, newValue bool) {
	if newValue {
		m.N++
	}
	m.Sum++
	m.Sumsq += intstat.IncSumsq(f)
	m.dirty = true
}

// Mean returns the mean of the scaled distribution NX, which is exactly Xsum.
//
//stat4:datapath
func (m *Moments) Mean() uint64 { return m.Sum }

// Variance returns the variance of NX: N·Xsumsq − Xsum². The result
// saturates at the top of the uint64 range rather than wrapping, so an
// overflowing distribution reads as "enormous spread" instead of a small
// value that would mask anomalies. By the Cauchy–Schwarz inequality the
// mathematical value is never negative; saturating subtraction guards the
// integer computation all the same.
//
//stat4:datapath
func (m *Moments) Variance() uint64 {
	hi, lo := bits.Mul64(m.N, m.Sumsq)
	shi, slo := bits.Mul64(m.Sum, m.Sum)
	if hi > shi || (hi == shi && lo >= slo) {
		// Non-negative difference; saturate if the high word is nonzero.
		dlo, b := bits.Sub64(lo, slo, 0)
		dhi, _ := bits.Sub64(hi, shi, b)
		if dhi != 0 {
			return ^uint64(0)
		}
		return dlo
	}
	return 0
}

// StdDev returns the approximate standard deviation of NX, the Figure 2
// square root of Variance. The value is cached and recomputed only when the
// moments have changed since the last read.
//
//stat4:datapath
func (m *Moments) StdDev() uint64 {
	if m.dirty {
		m.sd = intstat.SqrtApprox(m.Variance())
		m.dirty = false
		m.SDRecomputes++
	}
	return m.sd
}

// StdDevEager recomputes the standard deviation unconditionally. It is the
// eager partner in the lazy-vs-eager ablation and is otherwise equivalent to
// StdDev.
//
//stat4:datapath
func (m *Moments) StdDevEager() uint64 {
	m.sd = intstat.SqrtApprox(m.Variance())
	m.dirty = false
	m.SDRecomputes++
	return m.sd
}

// IsOutlierAbove reports whether a value x sits more than k standard
// deviations above the mean, evaluated entirely in NX space:
// N·x > Xsum + k·σ(NX). This is the paper's outlier test for normally
// distributed values of interest.
//
//stat4:datapath
func (m *Moments) IsOutlierAbove(x, k uint64) bool {
	hi, lo := bits.Mul64(m.N, x)
	if hi != 0 {
		return true // N·x overflows: certainly above any threshold
	}
	thrHi, thrLo := bits.Mul64(k, m.StdDev())
	var carry uint64
	thrLo, carry = bits.Add64(thrLo, m.Sum, 0)
	thrHi += carry
	if thrHi != 0 {
		return false
	}
	return lo > thrLo
}

// Reset clears the moments to the empty distribution.
func (m *Moments) Reset() {
	m.N, m.Sum, m.Sumsq, m.sd = 0, 0, 0, 0
	m.dirty = false
}
