package core

import "stat4/internal/intstat"

// Window is a sample-mode distribution over the most recent time intervals:
// a circular buffer of counters, one per interval, as used by the case-study
// application ("a circular buffer that by default stores 100 8ms-long time
// intervals"). Packets increment the current interval's counter; at the end
// of each interval Tick folds the completed counter into the moments,
// evicting the oldest counter once the buffer is full.
//
// Folding at interval boundaries rather than per packet is the paper's lazy
// update strategy: every packet touches one counter, while the expensive
// moment and standard-deviation work runs once per interval.
type Window struct {
	cells []uint64
	// sq mirrors cells with the squared counter values. The shadow is what
	// a P4 target maintains incrementally (via the 2x+1 identity) so that
	// evicting the oldest counter never squares a runtime value; keeping it
	// here too makes the reference semantics identical to the emitted IR.
	sq     []uint64
	head   int    // index of the next cell to overwrite
	filled int    // number of folded cells, ≤ len(cells)
	cur    uint64 // accumulator for the in-progress interval
	cursq  uint64 // running square of cur, maintained incrementally
	m      Moments
}

// NewWindow returns a circular window over the given number of intervals.
func NewWindow(intervals int) *Window {
	if intervals <= 0 {
		panic("core: non-positive window size")
	}
	return &Window{
		cells: make([]uint64, intervals),
		sq:    make([]uint64, intervals),
	}
}

// Moments returns the moments over the folded intervals. The in-progress
// interval is not included until Tick folds it.
//
//stat4:exempt:reachable (a) test reference: stat4p4's window cross-validation and core's window tests read the reference moments through it
func (w *Window) Moments() *Moments { return &w.m }

// Add increments the current interval's counter by delta (for example, 1 per
// packet, or the packet length in bytes). The squared shadow advances with
// the (x+δ)² = x² + 2xδ + δ² identity, which for δ known per packet is
// shift-and-add work on a P4 target.
//
//stat4:datapath
func (w *Window) Add(delta uint64) {
	w.cursq += 2*w.cur*delta + delta*delta
	w.cur += delta
}

// Tick closes the current interval: the completed counter is folded into the
// moments, the oldest cell is evicted if the buffer is full, and a fresh
// interval begins. It returns the completed counter value and whether the
// window was already full (so an eviction happened).
//
//stat4:datapath
func (w *Window) Tick() (completed uint64, evicted bool) {
	completed = w.cur
	if w.filled == len(w.cells) {
		old := w.cells[w.head]
		w.m.Sum = intstat.SatSub(w.m.Sum, old)
		w.m.Sumsq = intstat.SatSub(w.m.Sumsq, w.sq[w.head])
		w.m.dirty = true
		evicted = true
	} else {
		w.filled++
		w.m.N++
	}
	w.cells[w.head] = w.cur
	w.sq[w.head] = w.cursq
	w.m.Sum += w.cur
	w.m.Sumsq += w.cursq
	w.m.dirty = true
	// Advance the head with a compare-and-reset rather than a modulo: this
	// is exactly the emitted win_head_wrap action, and P4 has no %.
	w.head++
	if w.head == len(w.cells) {
		w.head = 0
	}
	w.cur, w.cursq = 0, 0
	return completed, evicted
}

// CheckThenTick runs the detection check against the stored distribution and
// then folds the interval, matching the switch behaviour: "continuously
// checking if in any interval, the rate is higher than the mean of the
// stored distribution plus two standard deviations". The check is skipped
// (returns false) until the window has folded at least two intervals, since
// a variance needs two samples to mean anything.
//
//stat4:datapath
func (w *Window) CheckThenTick(k uint64) (value uint64, anomalous bool) {
	v := w.cur
	if w.filled >= 2 {
		anomalous = w.m.IsOutlierAbove(v, k)
	}
	w.Tick()
	return v, anomalous
}
