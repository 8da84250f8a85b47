package detect

import (
	"stat4/internal/traffic"
)

// Alert is one detection event on the virtual clock: the controller-side
// arrival time of a digest, plus the reported key for heavy-hitter
// promotions.
type Alert struct {
	TsNs uint64
	Key  uint64
}

// Temporal is the windowed score of an alert stream against attack ground
// truth. The trace [0, EndNs) is cut into fixed evaluation windows; a window
// is truth-positive when it overlaps an attack interval and predicted-positive
// when at least one alert lands in it. Windows that end before the warmup
// horizon are excluded, as are alerts raised during warmup.
type Temporal struct {
	Windows int // evaluation windows scored (after warmup exclusion)
	Flagged int // windows with at least one alert
	TP      int
	FP      int
	FN      int

	Precision float64
	Recall    float64
	F1        float64

	AttacksTotal    int
	AttacksDetected int
	// MeanTTDNs is the mean delay from attack onset to the first alert
	// inside the attack interval (plus one window of grace), over detected
	// attacks. Nil when no attack was detected.
	MeanTTDNs *float64
}

// ScoreTemporal grades alerts against truth over `windows` fixed evaluation
// windows of [0, endNs).
func ScoreTemporal(truth traffic.Truth, endNs, warmupNs uint64, windows int, alerts []Alert) Temporal {
	if windows <= 0 || endNs == 0 {
		return Temporal{}
	}
	winNs := endNs / uint64(windows)
	if winNs == 0 {
		winNs = 1
	}
	flagged := make([]bool, windows)
	for _, a := range alerts {
		if a.TsNs < warmupNs || a.TsNs >= endNs {
			continue
		}
		w := int(a.TsNs / winNs)
		if w >= windows {
			w = windows - 1
		}
		flagged[w] = true
	}

	var t Temporal
	for w := 0; w < windows; w++ {
		start, end := uint64(w)*winNs, uint64(w+1)*winNs
		if end <= warmupNs {
			continue // detector not armed yet: window is unscorable
		}
		t.Windows++
		truthPos := false
		for _, atk := range truth.Attacks {
			if start < atk.EndNs && end > atk.StartNs {
				truthPos = true
				break
			}
		}
		switch {
		case flagged[w] && truthPos:
			t.TP++
			t.Flagged++
		case flagged[w]:
			t.FP++
			t.Flagged++
		case truthPos:
			t.FN++
		}
	}
	t.Precision, t.Recall, t.F1 = prf(t.TP, t.FP, t.FN)

	// Per-attack detection and time-to-detect: the first alert inside the
	// attack interval, with one evaluation window of grace past its end.
	t.AttacksTotal = len(truth.Attacks)
	var ttdSum float64
	for _, atk := range truth.Attacks {
		best, found := uint64(0), false
		for _, a := range alerts {
			if a.TsNs < warmupNs || a.TsNs < atk.StartNs || a.TsNs >= atk.EndNs+winNs {
				continue
			}
			if !found || a.TsNs < best {
				best, found = a.TsNs, true
			}
		}
		if found {
			t.AttacksDetected++
			ttdSum += float64(best - atk.StartNs)
		}
	}
	if t.AttacksDetected > 0 {
		m := ttdSum / float64(t.AttacksDetected)
		t.MeanTTDNs = &m
	}
	return t
}

// FlaggedFraction is the benign-twin false-alarm measure for temporal
// tracks: the fraction of post-warmup evaluation windows containing at least
// one alert.
func FlaggedFraction(endNs, warmupNs uint64, windows int, alerts []Alert) float64 {
	t := ScoreTemporal(traffic.Truth{}, endNs, warmupNs, windows, alerts)
	if t.Windows == 0 {
		return 0
	}
	return float64(t.Flagged) / float64(t.Windows)
}

// prf computes precision, recall and F1 from confusion counts, with the
// empty-denominator convention precision(0 reported) = recall(0 positives) = 0.
func prf(tp, fp, fn int) (p, r, f1 float64) {
	if tp+fp > 0 {
		p = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r = float64(tp) / float64(tp+fn)
	}
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return p, r, f1
}

// TallySrcs drains a stream counting packets per IPv4 source address. It
// returns the per-key tally and the total IPv4 packet count — the exact
// ground truth a heavy-hitter run is graded against (streams rebuild
// identically for the same seed, so draining costs one extra generation).
func TallySrcs(st traffic.Stream) (map[uint64]uint64, uint64) {
	tally := make(map[uint64]uint64)
	var total uint64
	for {
		p, ok := st.Next()
		if !ok {
			return tally, total
		}
		if !p.Frame.HasIPv4 {
			continue
		}
		tally[uint64(p.Frame.IPv4.Src)]++
		total++
	}
}

// HeavySet selects the keys holding at least `share` of total packets —
// the ground-truth heavy-key set at that threshold.
func HeavySet(tally map[uint64]uint64, total uint64, share float64) map[uint64]bool {
	set := make(map[uint64]bool)
	if total == 0 {
		return set
	}
	floor := share * float64(total)
	for k, n := range tally {
		if float64(n) >= floor {
			set[k] = true
		}
	}
	return set
}

// SetPRF grades a reported key set against a truth set.
func SetPRF(reported, truth map[uint64]bool) (p, r, f1 float64) {
	tp := 0
	for k := range reported {
		if truth[k] {
			tp++
		}
	}
	return prf(tp, len(reported)-tp, len(truth)-tp)
}
