package controller

import "math"

// This file implements the Section 5 sketch: "the controller has access to
// all the values of distributions tracked by switches … It can therefore
// learn about the distribution at runtime, and adapt the switch's anomaly
// detection approach accordingly. For example, if a distribution is bimodal,
// the controller can instruct switches to separately track and check the two
// modes."
//
// The controller pulls one counter snapshot, decides whether the histogram
// is bimodal (Otsu's criterion: does a two-class split explain most of the
// variance?), and if so plans two sub-range bindings that a Runtime can
// install on separate slots.

// ModePlan describes one mode's sub-range binding: track values in
// [Base, Base+Size) on its own distribution slot.
type ModePlan struct {
	Base uint64
	Size int
	Mass uint64 // observations inside the range in the analysed snapshot
}

// SplitThreshold computes Otsu's threshold over a histogram: the split index
// t that maximises the between-class variance of the two halves [0,t) and
// [t,len). It returns the split and the fraction of the histogram's variance
// the split explains (0..1); a fraction near 1 with balanced masses means
// clearly bimodal.
//
//stat4:exempt:reachable (b) paper concept: the mode split of Section 5
func SplitThreshold(hist []uint64) (split int, explained float64) {
	var total, weighted uint64
	for v, f := range hist {
		total += f
		weighted += uint64(v) * f
	}
	if total == 0 {
		return 0, 0
	}
	mean := float64(weighted) / float64(total)
	var variance float64
	for v, f := range hist {
		d := float64(v) - mean
		variance += d * d * float64(f)
	}
	variance /= float64(total)
	if variance == 0 {
		return 0, 0
	}

	var bestT int
	var bestBetween float64
	var wLo, sumLo uint64
	for t := 1; t < len(hist); t++ {
		wLo += hist[t-1]
		sumLo += uint64(t-1) * hist[t-1]
		wHi := total - wLo
		if wLo == 0 || wHi == 0 {
			continue
		}
		muLo := float64(sumLo) / float64(wLo)
		muHi := float64(weighted-sumLo) / float64(wHi)
		between := float64(wLo) * float64(wHi) * (muLo - muHi) * (muLo - muHi) /
			(float64(total) * float64(total))
		if between > bestBetween {
			bestBetween, bestT = between, t
		}
	}
	return bestT, bestBetween / variance
}

// IsBimodal reports whether a histogram splits into two well-separated,
// non-trivial modes: the best two-class split must explain at least
// minExplained of the variance (Otsu's criterion; 0 picks a default of 0.8)
// and both sides must hold at least 10% of the mass.
//
//stat4:exempt:reachable (b) paper concept: the mode split of Section 5
func IsBimodal(hist []uint64, minExplained float64) bool {
	if minExplained <= 0 {
		minExplained = 0.8
	}
	split, explained := SplitThreshold(hist)
	if explained < minExplained {
		return false
	}
	var lo, hi uint64
	for v, f := range hist {
		if v < split {
			lo += f
		} else {
			hi += f
		}
	}
	total := lo + hi
	if total == 0 {
		return false
	}
	return lo*10 >= total && hi*10 >= total
}

// PlanModeSplit analyses a counter snapshot whose index i counts value
// base+i, and — when the histogram is bimodal — returns the two sub-range
// plans the controller should bind to separate slots. ok is false for
// effectively unimodal histograms, in which case the single original binding
// should stay.
//
// Each plan's range is padded by 25% of the mode's width (clamped to the
// snapshot) so the follow-up distributions can see the mode drift before
// values fall outside their domain.
//
//stat4:exempt:reachable (b) paper concept: the mode split of Section 5
func PlanModeSplit(hist []uint64, base uint64) (modes [2]ModePlan, ok bool) {
	if !IsBimodal(hist, 0) {
		return modes, false
	}
	split, _ := SplitThreshold(hist)
	lo := modeBounds(hist[:split])
	hi := modeBounds(hist[split:])
	hi.lo += split
	hi.hi += split
	modes[0] = planFor(lo, base, len(hist))
	modes[1] = planFor(hi, base, len(hist))
	return modes, true
}

type bounds struct {
	lo, hi int // [lo, hi] indexes of nonzero mass
	mass   uint64
}

// modeBounds finds the span of hist's nonzero mass.
//
//stat4:exempt:reachable (b) paper concept: the mode split of Section 5
func modeBounds(hist []uint64) bounds {
	b := bounds{lo: -1}
	for v, f := range hist {
		if f == 0 {
			continue
		}
		if b.lo < 0 {
			b.lo = v
		}
		b.hi = v
		b.mass += f
	}
	if b.lo < 0 {
		b.lo, b.hi = 0, 0
	}
	return b
}

// planFor widens a mode's span by a quarter on each side, clamped to the
// histogram, and places it at base.
//
//stat4:exempt:reachable (b) paper concept: the mode split of Section 5
func planFor(b bounds, base uint64, histLen int) ModePlan {
	pad := int(math.Ceil(float64(b.hi-b.lo+1) * 0.25))
	lo := b.lo - pad
	if lo < 0 {
		lo = 0
	}
	hi := b.hi + pad
	if hi >= histLen {
		hi = histLen - 1
	}
	return ModePlan{Base: base + uint64(lo), Size: hi - lo + 1, Mass: b.mass}
}
