package core

import (
	"math/rand"
	"testing"

	"stat4/internal/baseline"
)

func TestWindowFoldsAtTick(t *testing.T) {
	w := NewWindow(4)
	w.Add(3)
	w.Add(2)
	if w.Moments().N != 0 {
		t.Fatal("in-progress interval leaked into moments")
	}
	v, evicted := w.Tick()
	if v != 5 || evicted {
		t.Fatalf("Tick = (%d,%v), want (5,false)", v, evicted)
	}
	m := w.Moments()
	if m.N != 1 || m.Sum != 5 || m.Sumsq != 25 {
		t.Fatalf("moments (%d,%d,%d), want (1,5,25)", m.N, m.Sum, m.Sumsq)
	}
}

// TestWindowMomentsMatchCells property: at any point, the moments equal the
// from-scratch computation over the live cells.
func TestWindowMomentsMatchCells(t *testing.T) {
	w := NewWindow(10)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		for p := rng.Intn(30); p > 0; p-- {
			w.Add(1)
		}
		w.Tick()
		live := w.Cells()
		if w.Filled() < w.Capacity() {
			live = live[:w.Filled()]
		}
		n, sum, sumsq := baseline.Moments(live)
		m := w.Moments()
		if m.N != n || m.Sum != sum || m.Sumsq != sumsq {
			t.Fatalf("tick %d: moments (%d,%d,%d), want (%d,%d,%d)",
				i, m.N, m.Sum, m.Sumsq, n, sum, sumsq)
		}
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, v := range []uint64{10, 20, 30} {
		w.Add(v)
		w.Tick()
	}
	if w.Filled() != 3 {
		t.Fatalf("Filled = %d, want 3", w.Filled())
	}
	w.Add(40)
	if _, evicted := w.Tick(); !evicted {
		t.Fatal("full window did not report eviction")
	}
	// Cells now hold {20, 30, 40}.
	m := w.Moments()
	if m.N != 3 || m.Sum != 90 || m.Sumsq != 400+900+1600 {
		t.Fatalf("post-eviction moments (%d,%d,%d)", m.N, m.Sum, m.Sumsq)
	}
}

func TestWindowAddDeltaSquares(t *testing.T) {
	// Byte-count accumulation: deltas larger than one must keep the squared
	// shadow exact.
	w := NewWindow(2)
	w.Add(100)
	w.Add(250)
	w.Tick()
	if w.Moments().Sumsq != 350*350 {
		t.Fatalf("Sumsq = %d, want %d", w.Moments().Sumsq, 350*350)
	}
}

func TestWindowSpikeDetection(t *testing.T) {
	w := NewWindow(100)
	rng := rand.New(rand.NewSource(2))
	// 100 intervals of stable rate.
	for i := 0; i < 100; i++ {
		for p := 95 + rng.Intn(11); p > 0; p-- {
			w.Add(1)
		}
		if _, anomalous := w.CheckThenTick(2); anomalous {
			t.Fatalf("false positive during stable traffic at interval %d", i)
		}
	}
	// Spike interval: 3x the rate.
	for p := 0; p < 300; p++ {
		w.Add(1)
	}
	if _, anomalous := w.CheckThenTick(2); !anomalous {
		t.Fatal("3x spike not detected in its first interval")
	}
}

func TestWindowNoCheckBeforeTwoIntervals(t *testing.T) {
	w := NewWindow(10)
	w.Add(1000)
	if _, anomalous := w.CheckThenTick(2); anomalous {
		t.Fatal("check fired with zero folded intervals")
	}
	w.Add(1000)
	if _, anomalous := w.CheckThenTick(2); anomalous {
		t.Fatal("check fired with one folded interval")
	}
}

func TestWindowZeroIntervals(t *testing.T) {
	// Idle intervals (zero packets) are legitimate samples.
	w := NewWindow(4)
	for i := 0; i < 6; i++ {
		w.Tick()
	}
	m := w.Moments()
	if m.N != 4 || m.Sum != 0 || m.Sumsq != 0 || m.Variance() != 0 {
		t.Fatalf("idle window moments (%d,%d,%d)", m.N, m.Sum, m.Sumsq)
	}
}

func TestNewWindowPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

func TestWindowAccessors(t *testing.T) {
	w := NewWindow(4)
	w.Add(5)
	if w.Current() != 5 {
		t.Fatalf("Current = %d", w.Current())
	}
}

// Capacity returns the number of intervals the window holds.
func (w *Window) Capacity() int { return len(w.cells) }

// Filled returns how many intervals have been folded so far, saturating at
// Capacity.
func (w *Window) Filled() int { return w.filled }

// Current returns the accumulator of the in-progress interval.
func (w *Window) Current() uint64 { return w.cur }

// Cells returns the backing counter array (read-only for callers).
func (w *Window) Cells() []uint64 { return w.cells }
