package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// --- helpers -------------------------------------------------------------

// shardStream deals stream into k shards by an arbitrary assignment derived
// from the rng, mimicking an RSS dispatcher: every element lands in exactly
// one shard, order within a shard preserved.
func shardStream(stream []uint64, k int, rng *rand.Rand) [][]uint64 {
	shards := make([][]uint64, k)
	for _, v := range stream {
		s := rng.Intn(k)
		shards[s] = append(shards[s], v)
	}
	return shards
}

func freqFromStream(size int, stream []uint64, pcts [][2]uint64) (*FreqDist, []*Percentile) {
	d := NewFreqDist(size)
	ps := make([]*Percentile, len(pcts))
	for i, ab := range pcts {
		ps[i] = d.TrackPercentile(ab[0], ab[1])
	}
	for _, v := range stream {
		if err := d.Observe(v % uint64(size)); err != nil {
			panic(err)
		}
	}
	return d, ps
}

func momentsEqual(a, b *Moments) bool {
	return a.N == b.N && a.Sum == b.Sum && a.Sumsq == b.Sumsq
}

// --- Moments merge laws --------------------------------------------------

func TestMomentsMergeMatchesSerial(t *testing.T) {
	f := func(xs []uint16, split uint8) bool {
		if len(xs) == 0 {
			return true
		}
		cut := int(split) % (len(xs) + 1)
		var serial, a, b Moments
		for _, x := range xs {
			serial.AddSample(uint64(x))
		}
		for _, x := range xs[:cut] {
			a.AddSample(uint64(x))
		}
		for _, x := range xs[cut:] {
			b.AddSample(uint64(x))
		}
		a.MergeFrom(&b)
		return momentsEqual(&a, &serial) &&
			a.Variance() == serial.Variance() && a.StdDev() == serial.StdDev()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMomentsMergeCommutative(t *testing.T) {
	f := func(n1, s1, q1, n2, s2, q2 uint32) bool {
		a := NewMoments(uint64(n1), uint64(s1), uint64(q1))
		b := NewMoments(uint64(n2), uint64(s2), uint64(q2))
		ab, ba := a, b
		ab.MergeFrom(&b)
		ba.MergeFrom(&a)
		return momentsEqual(&ab, &ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMomentsMergeAssociative(t *testing.T) {
	f := func(vals [9]uint32) bool {
		m := func(i int) Moments {
			return NewMoments(uint64(vals[3*i]), uint64(vals[3*i+1]), uint64(vals[3*i+2]))
		}
		// (a⊕b)⊕c
		l1, l2 := m(0), m(1)
		l1.MergeFrom(&l2)
		lc := m(2)
		l1.MergeFrom(&lc)
		// a⊕(b⊕c)
		r2, r3 := m(1), m(2)
		r2.MergeFrom(&r3)
		r1 := m(0)
		r1.MergeFrom(&r2)
		return momentsEqual(&l1, &r1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- FreqDist merge laws -------------------------------------------------

// TestFreqDistMergeShardsMatchSerial is the central merge law: dealing a
// stream across K shards and merging equals serial processing, exactly for
// counters and moments, with markers landing on a valid equilibrium.
func TestFreqDistMergeShardsMatchSerial(t *testing.T) {
	const size = 64
	rng := rand.New(rand.NewSource(4))
	pcts := [][2]uint64{{1, 1}, {99, 1}, {1, 9}}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		k := 1 + rng.Intn(8)
		stream := make([]uint64, n)
		for i := range stream {
			stream[i] = uint64(rng.Intn(size))
		}
		serial, _ := freqFromStream(size, stream, pcts)
		shards := shardStream(stream, k, rng)

		merged, mps := freqFromStream(size, shards[0], pcts)
		for _, part := range shards[1:] {
			sd, _ := freqFromStream(size, part, pcts)
			if err := merged.MergeFrom(sd); err != nil {
				t.Fatalf("trial %d: merge: %v", trial, err)
			}
		}

		for v := 0; v < size; v++ {
			if merged.Freq(uint64(v)) != serial.Freq(uint64(v)) {
				t.Fatalf("trial %d: freq[%d] = %d, serial %d", trial, v, merged.Freq(uint64(v)), serial.Freq(uint64(v)))
			}
		}
		if !momentsEqual(merged.Moments(), serial.Moments()) {
			t.Fatalf("trial %d: moments %+v, serial %+v", trial, merged.Moments(), serial.Moments())
		}
		if merged.Moments().Variance() != serial.Moments().Variance() {
			t.Fatalf("trial %d: variance mismatch", trial)
		}
		// k == 1 means no merge ran: the marker is the serial one-step
		// marker, which may lag behind equilibrium by design. Only merged
		// (rederived) markers promise equilibrium.
		for i, p := range mps {
			checkMarkerInvariants(t, merged, p, pcts[i][0], pcts[i][1], k > 1)
		}
	}
}

// checkMarkerInvariants asserts the structural facts every valid marker
// state satisfies: the bookkept low/high masses tile the distribution
// around idx, and the move-up rule is at equilibrium — the same invariants
// the serial one-step rule maintains per packet. (A marker may rest on an
// empty slot: the serial rule, too, moves one slot at a time regardless of
// the destination's frequency.)
func checkMarkerInvariants(t *testing.T, d *FreqDist, p *Percentile, a, b uint64, rederived bool) {
	t.Helper()
	total := d.Moments().Sum
	if total == 0 {
		if p.Initialized() {
			t.Fatalf("marker initialized on empty distribution")
		}
		return
	}
	if !p.Initialized() {
		t.Fatalf("marker uninitialized on non-empty distribution")
	}
	f := d.Freq(p.Value())
	if p.LowCount()+f+p.HighCount() != total {
		t.Fatalf("marker %d:%d mass split %d+%d+%d != %d", a, b, p.LowCount(), f, p.HighCount(), total)
	}
	var below uint64
	for v := uint64(0); v < p.Value(); v++ {
		below += d.Freq(v)
	}
	if below != p.LowCount() {
		t.Fatalf("marker %d:%d low=%d but true mass below is %d", a, b, p.LowCount(), below)
	}
	if rederived && a*p.HighCount() > b*(p.LowCount()+f) && p.Value()+1 < uint64(d.Size()) {
		t.Fatalf("marker %d:%d not at equilibrium: would still move up from %d", a, b, p.Value())
	}
}

func TestFreqDistMergeCommutative(t *testing.T) {
	const size = 32
	f := func(xs, ys []uint8) bool {
		mk := func(vals []uint8) *FreqDist {
			d := NewFreqDist(size)
			d.TrackMedian()
			for _, v := range vals {
				_ = d.Observe(uint64(v) % size)
			}
			return d
		}
		ab, b := mk(xs), mk(ys)
		ba, a := mk(ys), mk(xs)
		if ab.MergeFrom(b) != nil || ba.MergeFrom(a) != nil {
			return false
		}
		for v := uint64(0); v < size; v++ {
			if ab.Freq(v) != ba.Freq(v) {
				return false
			}
		}
		return momentsEqual(ab.Moments(), ba.Moments()) &&
			ab.pct[0].idx == ba.pct[0].idx &&
			ab.pct[0].low == ba.pct[0].low &&
			ab.pct[0].high == ba.pct[0].high
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreqDistMergeAssociative(t *testing.T) {
	const size = 32
	f := func(xs, ys, zs []uint8) bool {
		mk := func(vals []uint8) *FreqDist {
			d := NewFreqDist(size)
			for _, v := range vals {
				_ = d.Observe(uint64(v) % size)
			}
			return d
		}
		// (x⊕y)⊕z
		l := mk(xs)
		if l.MergeFrom(mk(ys)) != nil || l.MergeFrom(mk(zs)) != nil {
			return false
		}
		// x⊕(y⊕z)
		r, yz := mk(xs), mk(ys)
		if yz.MergeFrom(mk(zs)) != nil || r.MergeFrom(yz) != nil {
			return false
		}
		for v := uint64(0); v < size; v++ {
			if l.Freq(v) != r.Freq(v) {
				return false
			}
		}
		return momentsEqual(l.Moments(), r.Moments())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreqDistMergeShapeMismatch(t *testing.T) {
	a, b := NewFreqDist(8), NewFreqDist(16)
	_ = a.Observe(3)
	if err := a.MergeFrom(b); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if a.Freq(3) != 1 || a.Moments().N != 1 {
		t.Fatal("failed merge mutated the destination")
	}
}

// --- marker rederivation -------------------------------------------------

func TestRederiveMarkerEmpty(t *testing.T) {
	if _, _, _, ok := RederiveMarker(make([]uint64, 8), 1, 1); ok {
		t.Fatal("rederive on empty distribution reported ok")
	}
	d := NewFreqDist(8)
	p := d.TrackMedian()
	p.Rederive(d)
	if p.Initialized() {
		t.Fatal("rederive on empty distribution left marker initialized")
	}
}

// TestRederiveMarkerMatchesSettle: on a static distribution, the bounded
// walk lands where a serial marker would settle given unlimited steps —
// both are equilibria of the same rule, reached from the low end.
func TestRederiveMarkerMatchesSettle(t *testing.T) {
	const size = 48
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		freq := make([]uint64, size)
		n := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			freq[rng.Intn(size)]++
		}
		for _, ab := range [][2]uint64{{1, 1}, {9, 1}, {1, 3}} {
			idx, low, high, ok := RederiveMarker(freq, ab[0], ab[1])
			if !ok {
				t.Fatalf("trial %d: unexpectedly empty", trial)
			}
			var total, below uint64
			for _, f := range freq {
				total += f
			}
			for v := uint64(0); v < idx; v++ {
				below += freq[v]
			}
			if below != low || total-below-freq[idx] != high {
				t.Fatalf("trial %d %d:%d: mass bookkeeping off", trial, ab[0], ab[1])
			}
			if ab[0]*high > ab[1]*(low+freq[idx]) && idx+1 < size {
				t.Fatalf("trial %d %d:%d: walk stopped before equilibrium", trial, ab[0], ab[1])
			}
		}
	}
}

// --- SampleDist ----------------------------------------------------------

func TestSampleDistMergeMatchesSerial(t *testing.T) {
	f := func(xs []uint16, split uint8) bool {
		if len(xs) == 0 {
			return true
		}
		cut := int(split) % (len(xs) + 1)
		serial := NewSampleDist(len(xs))
		for _, x := range xs {
			if serial.Observe(uint64(x)) != nil {
				return false
			}
		}
		a, b := NewSampleDist(len(xs)), NewSampleDist(len(xs))
		for _, x := range xs[:cut] {
			_ = a.Observe(uint64(x))
		}
		for _, x := range xs[cut:] {
			_ = b.Observe(uint64(x))
		}
		if a.MergeFrom(b) != nil {
			return false
		}
		if a.Len() != serial.Len() || !momentsEqual(a.Moments(), serial.Moments()) {
			return false
		}
		for i, v := range serial.Samples() {
			if a.Samples()[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleDistMergeCapacity(t *testing.T) {
	a, b := NewSampleDist(3), NewSampleDist(3)
	for i := 0; i < 2; i++ {
		_ = a.Observe(1)
		_ = b.Observe(2)
	}
	if err := a.MergeFrom(b); err == nil {
		t.Fatal("expected capacity error")
	}
	if a.Len() != 2 || a.Moments().Sum != 2 {
		t.Fatal("failed merge mutated the destination")
	}
}
