package core

import "errors"

// ErrFull is returned when a sample-mode distribution has exhausted its
// counter cells. Stat4 keeps one counter per value (Section 2), so the
// population a distribution can hold is fixed at allocation time.
var ErrFull = errors.New("core: distribution has no free counters")

// SampleDist is a non-frequency distribution: each observed value occupies
// its own counter cell, and the moments grow with every observation
// ("we increase N by 1, and Xsum by xk … adding the square of xk, and store
// xk in a new counter"). It models open-ended collections such as per-prefix
// byte counts bound at runtime.
type SampleDist struct {
	cells []uint64
	n     int
	m     Moments
}

// NewSampleDist returns a sample distribution with the given number of
// counter cells.
//
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2
func NewSampleDist(capacity int) *SampleDist {
	if capacity <= 0 {
		panic("core: non-positive SampleDist capacity")
	}
	return &SampleDist{cells: make([]uint64, capacity)}
}

// Capacity returns the total number of counter cells.
//
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2
func (d *SampleDist) Capacity() int { return len(d.cells) }

// Len returns the number of stored samples.
//
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2
func (d *SampleDist) Len() int { return d.n }

// Moments returns the distribution's scaled moments.
//
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2
func (d *SampleDist) Moments() *Moments { return &d.m }

// Samples returns the stored sample values (read-only for callers).
//
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2
func (d *SampleDist) Samples() []uint64 { return d.cells[:d.n] }

// Observe stores a new sample and folds it into the moments. It returns
// ErrFull when every cell is occupied.
//
//stat4:datapath
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2
func (d *SampleDist) Observe(x uint64) error {
	if d.n == len(d.cells) {
		// Bare sentinel: wrapping would allocate per rejected observation.
		return ErrFull
	}
	d.cells[d.n] = x
	d.n++
	d.m.AddSample(x)
	return nil
}

// AddAt increases the sample at index i by delta, updating the moments with
// the (x+δ)² identity. This is how per-key accumulators (e.g. bytes per /24
// subnet) grow while remaining a sample-mode distribution over keys.
//
//stat4:datapath
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2
func (d *SampleDist) AddAt(i int, delta uint64) error {
	if i < 0 || i >= d.n {
		return ErrOutOfRange
	}
	x := d.cells[i]
	d.cells[i] = x + delta
	d.m.Sum += delta
	d.m.Sumsq += 2*x*delta + delta*delta
	d.m.dirty = true
	return nil
}

// Reset clears all samples and moments.
//
//stat4:exempt:reachable (b) paper concept: the sample mode of Section 2
func (d *SampleDist) Reset() {
	for i := range d.cells[:d.n] {
		d.cells[i] = 0
	}
	d.n = 0
	d.m.Reset()
}
