package core

import (
	"errors"
	"math/rand"
	"testing"

	"stat4/internal/baseline"
)

// TestMedianFigure3 reproduces the worked example of Figure 3: values 1..10
// with frequencies {2:10, 3:2, 6:1, 9:5, 10:6}, median marker at 4 with low
// and high counts both 12. Adding an 8 makes the high side heavier; the
// marker needs two packets to travel 4 → 5 → 6, skipping the empty slot.
func TestMedianFigure3(t *testing.T) {
	d := NewFreqDist(11) // domain 0..10; the figure uses values 1..10
	med := d.TrackMedian()

	// Rebuild the figure's state directly, as the paper draws it.
	freq := map[uint64]uint64{2: 10, 3: 2, 6: 1, 9: 5, 10: 6}
	for v, f := range freq {
		d.freq[v] = f
	}
	med.idx, med.low, med.high, med.inited = 4, 12, 12, true

	if err := d.Observe(8); err != nil {
		t.Fatal(err)
	}
	// Moments bookkeeping aside, the marker may move only one slot.
	if med.Value() != 5 {
		t.Fatalf("after first packet marker at %d, want 5", med.Value())
	}
	// A second packet not carrying a value of interest still moves the
	// marker (Section 2: "those packets do contribute to moving the
	// median").
	d.Step()
	if med.Value() != 6 {
		t.Fatalf("after second packet marker at %d, want 6 (Figure 3)", med.Value())
	}
	// Balanced now: further packets leave it in place.
	d.Step()
	if med.Value() != 6 {
		t.Fatalf("marker moved past the median to %d", med.Value())
	}
}

func TestFreqDistMomentsMatchBaseline(t *testing.T) {
	d := NewFreqDist(64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		if err := d.Observe(uint64(rng.Intn(64))); err != nil {
			t.Fatal(err)
		}
	}
	var distinct, total, sumsq uint64
	for _, f := range d.Frequencies() {
		if f > 0 {
			distinct++
		}
		total += f
		sumsq += f * f
	}
	m := d.Moments()
	if m.N != distinct || m.Sum != total || m.Sumsq != sumsq {
		t.Fatalf("moments (%d,%d,%d), want (%d,%d,%d)", m.N, m.Sum, m.Sumsq, distinct, total, sumsq)
	}
}

// TestFrequenciesCopyIsSafe regression: Frequencies used to return the live
// backing slice, so a caller scribbling on it desynchronized the counters
// from the moments and percentile markers. It must return a copy.
func TestFrequenciesCopyIsSafe(t *testing.T) {
	d := NewFreqDist(16)
	med := d.TrackMedian()
	for i := 0; i < 200; i++ {
		d.Observe(uint64(i % 16))
	}
	before := d.Moments().Sum
	snap := d.Frequencies()
	for i := range snap {
		snap[i] = 0 // a hostile caller
	}
	if d.Freq(3) == 0 {
		t.Fatal("mutating the Frequencies() result reached the tracked counters")
	}
	if got := d.Moments().Sum; got != before {
		t.Fatalf("moments changed under caller mutation: %d != %d", got, before)
	}
	// The markers still step against intact counters.
	d.Observe(15)
	if !med.Initialized() {
		t.Fatal("median marker lost state")
	}
}

func TestFreqDistOutOfRange(t *testing.T) {
	d := NewFreqDist(8)
	if err := d.Observe(8); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Observe(8) on size-8 domain: err = %v, want ErrOutOfRange", err)
	}
	if err := d.Observe(7); err != nil {
		t.Fatalf("Observe(7) on size-8 domain failed: %v", err)
	}
}

// TestMedianConvergesDense: on a dense distribution the one-step-per-packet
// marker stays within 1% of the exact median after the early sparse phase
// (the Table 3 claim).
func TestMedianConvergesDense(t *testing.T) {
	const n = 1000
	d := NewFreqDist(n)
	med := d.TrackMedian()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10*n; i++ {
		if err := d.Observe(uint64(rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
		if i > n/2 {
			exact := baseline.ExactMedian(d.Frequencies())
			diff := int64(med.Value()) - int64(exact)
			if diff < 0 {
				diff = -diff
			}
			if float64(diff)/float64(n) > 0.01 {
				t.Fatalf("at packet %d marker %d vs exact %d: error %.2f%% > 1%%",
					i, med.Value(), exact, 100*float64(diff)/float64(n))
			}
		}
	}
}

// TestPercentile90Converges: the 9:1 weighting tracks the 90th percentile.
func TestPercentile90Converges(t *testing.T) {
	const n = 1000
	d := NewFreqDist(n)
	p90 := d.TrackPercentile(9, 1)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20*n; i++ {
		if err := d.Observe(uint64(rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
	}
	exact := baseline.ExactPercentile(d.Frequencies(), 90)
	diff := int64(p90.Value()) - int64(exact)
	if diff < 0 {
		diff = -diff
	}
	if float64(diff)/float64(n) > 0.02 {
		t.Fatalf("p90 marker %d vs exact %d: error %.2f%%", p90.Value(), exact, 100*float64(diff)/float64(n))
	}
}

// TestPercentileInvariant property: after every packet, low and high hold
// exactly the combined frequencies below and above the marker.
func TestPercentileCountInvariant(t *testing.T) {
	d := NewFreqDist(50)
	med := d.TrackMedian()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		if err := d.Observe(uint64(rng.Intn(50))); err != nil {
			t.Fatal(err)
		}
		var low, high uint64
		for v, f := range d.Frequencies() {
			switch {
			case uint64(v) < med.Value():
				low += f
			case uint64(v) > med.Value():
				high += f
			}
		}
		if med.LowCount() != low || med.HighCount() != high {
			t.Fatalf("packet %d: counts (%d,%d), recomputed (%d,%d)",
				i, med.LowCount(), med.HighCount(), low, high)
		}
	}
}

// TestMedianSparseWorstCase: on a two-point distribution at the domain
// extremes the marker drifts one slot per packet, the worst case the paper
// acknowledges ("estimation error … proportional to the size of F").
func TestMedianSparseWorstCase(t *testing.T) {
	const n = 100
	d := NewFreqDist(n)
	med := d.TrackMedian()
	if err := d.Observe(0); err != nil {
		t.Fatal(err)
	}
	// Heavy mass lands at the far end; the marker must walk there.
	for i := 0; i < 10; i++ {
		if err := d.Observe(n - 1); err != nil {
			t.Fatal(err)
		}
	}
	if med.Value() >= n-1 {
		t.Fatal("marker teleported; one-step rule violated")
	}
	steps := 0
	for med.Value() < n-1 && steps < 2*n {
		d.Step()
		steps++
	}
	if med.Value() != n-1 {
		t.Fatalf("marker stuck at %d after %d steps", med.Value(), steps)
	}
	if steps < n-10 {
		t.Fatalf("marker crossed %d slots in %d steps: moved more than one per packet", n, steps)
	}
}

func TestMedianBoundsClamped(t *testing.T) {
	d := NewFreqDist(4)
	med := d.TrackMedian()
	// All mass at the top edge.
	for i := 0; i < 20; i++ {
		if err := d.Observe(3); err != nil {
			t.Fatal(err)
		}
		d.Step()
	}
	if med.Value() != 3 {
		t.Fatalf("marker %d, want clamped at 3", med.Value())
	}
	d.Reset()
	for i := 0; i < 20; i++ {
		if err := d.Observe(0); err != nil {
			t.Fatal(err)
		}
		d.Step()
	}
	if med.Value() != 0 {
		t.Fatalf("marker %d, want clamped at 0", med.Value())
	}
}

func TestFreqDistReset(t *testing.T) {
	d := NewFreqDist(8)
	med := d.TrackMedian()
	for i := 0; i < 10; i++ {
		if err := d.Observe(uint64(i % 8)); err != nil {
			t.Fatal(err)
		}
	}
	d.Reset()
	if d.Moments().N != 0 || med.Initialized() || med.Value() != 0 {
		t.Fatal("Reset left state behind")
	}
	for _, f := range d.Frequencies() {
		if f != 0 {
			t.Fatal("Reset left counters behind")
		}
	}
}

func TestTrackPercentilePanicsOnZeroWeight(t *testing.T) {
	d := NewFreqDist(4)
	defer func() {
		if recover() == nil {
			t.Fatal("TrackPercentile(0,1) did not panic")
		}
	}()
	d.TrackPercentile(0, 1)
}

func TestNewFreqDistPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFreqDist(0) did not panic")
		}
	}()
	NewFreqDist(0)
}

// TestSettleReachesExactMedian: with unlimited stepping the marker lands on
// the exact balanced position even on sparse distributions — the accuracy a
// recirculating implementation would buy.
func TestSettleReachesExactMedian(t *testing.T) {
	d := NewFreqDist(100)
	med := d.TrackMedian()
	if err := d.Observe(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Observe(99); err != nil {
			t.Fatal(err)
		}
	}
	steps := med.Settle(d, 1000)
	if med.Value() != 99 {
		t.Fatalf("settled marker at %d, want 99", med.Value())
	}
	if steps == 0 || steps > 100 {
		t.Fatalf("settled in %d steps", steps)
	}
	// Already balanced: no movement.
	if med.Settle(d, 1000) != 0 {
		t.Fatal("balanced marker moved")
	}
}

// TestMedianBurstRecovery pins the one-step-per-packet lag bound the
// telemetry layer leans on: after a burst of N identical values far from the
// marker, the marker has moved at most N slots toward them (one per packet),
// and N further quiet Step calls are enough to finish the walk. Reset must
// restore the marker to its pristine state so a reused histogram re-seeds at
// the first value of the next stream.
func TestMedianBurstRecovery(t *testing.T) {
	const (
		start = uint64(10)
		dest  = uint64(100)
		burst = 50
	)
	d := NewFreqDist(256)
	med := d.TrackMedian()
	if err := d.Observe(start); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := d.Observe(dest); err != nil {
			t.Fatal(err)
		}
	}
	// One move per packet at most: the marker lags, it never jumps.
	if got := med.Value(); got > start+burst {
		t.Fatalf("marker at %d after %d-packet burst from %d: moved more than one slot per packet", got, burst, start)
	}
	if med.Moves() > burst {
		t.Fatalf("Moves = %d after %d observations past the init", med.Moves(), burst)
	}
	// Quiet packets (Step without a value) finish the convergence: the
	// remaining walk is at most burst slots long.
	for i := 0; i < burst; i++ {
		d.Step()
	}
	if med.Value() != dest {
		t.Fatalf("marker at %d after %d quiet steps, want %d", med.Value(), burst, dest)
	}
	if med.LowCount() > 1 || med.HighCount() != 0 {
		t.Fatalf("counts low=%d high=%d at the converged marker", med.LowCount(), med.HighCount())
	}

	// Reset restores the pristine marker...
	d.Reset()
	if med.Initialized() || med.Value() != 0 || med.LowCount() != 0 || med.HighCount() != 0 || med.Moves() != 0 {
		t.Fatalf("Reset left marker state: %+v", med)
	}
	// ...and the next stream re-seeds at its first value.
	if err := d.Observe(7); err != nil {
		t.Fatal(err)
	}
	if !med.Initialized() || med.Value() != 7 {
		t.Fatalf("marker did not re-seed after Reset: inited=%v value=%d", med.Initialized(), med.Value())
	}
}

// Step advances every registered percentile marker by at most one slot
// without recording a value: the paper notes that packets not carrying
// values of interest still move the median.
func (d *FreqDist) Step() {
	for _, p := range d.pct {
		p.step(d)
	}
}

// Initialized reports whether the marker has seen at least one value.
func (p *Percentile) Initialized() bool { return p.inited }

// LowCount returns the combined frequency of values below the marker.
func (p *Percentile) LowCount() uint64 { return p.low }

// HighCount returns the combined frequency of values above the marker.
func (p *Percentile) HighCount() uint64 { return p.high }
