// Package sketch implements the sketch-only monitoring architecture of
// Figure 1b as a baseline: the data plane keeps only counters, and a
// controller pulls register snapshots on a fixed period to run the anomaly
// check itself. Pulling costs time proportional to the number of registers
// ("reading thousands of registers takes several milliseconds") plus the
// link delay, which is exactly the reactivity gap the paper's Section 1
// argues motivates in-switch detection.
package sketch

import (
	"math"

	"stat4/internal/netem"
	"stat4/internal/stat4p4"
)

// PullMonitor polls one window distribution's registers and performs the
// mean + K·σ check in the controller.
type PullMonitor struct {
	Sim  *netem.Sim
	RT   *stat4p4.Runtime
	Slot int
	// Window is the circular buffer length being monitored.
	Window int
	// Period is the pull interval in ns.
	Period uint64
	// PerRegNs is the cost of reading one register cell.
	PerRegNs uint64
	// LinkDelay is the one-way switch↔controller latency; a pull pays it
	// twice (request + response).
	LinkDelay uint64
	// K is the σ multiplier of the detection check.
	K float64
	// OnDetect fires (at controller time) for each newly completed
	// interval flagged anomalous.
	OnDetect func(now uint64, value uint64)

	lastHead  uint64
	havePrev  bool
	stopAfter uint64

	// RegistersPerPull reports the snapshot size.
	RegistersPerPull int
	// Pulls counts completed pulls.
	Pulls uint64
}

// Start schedules the periodic pull loop until the deadline.
func (m *PullMonitor) Start(deadline uint64) {
	m.stopAfter = deadline
	m.RegistersPerPull = m.Window + 2 // cells + head + n
	m.schedule()
}

func (m *PullMonitor) schedule() {
	m.Sim.After(m.Period, func() {
		if m.Sim.Now() > m.stopAfter {
			return
		}
		// The snapshot reflects switch state at request arrival; the
		// response lands after the read time plus the return link.
		m.Sim.After(m.LinkDelay, func() {
			snapshot := m.snapshot()
			cost := uint64(m.RegistersPerPull) * m.PerRegNs
			m.Sim.After(cost+m.LinkDelay, func() {
				m.analyze(snapshot)
				m.Pulls++
			})
		})
		m.schedule()
	})
}

type pullSnapshot struct {
	cells []uint64
	head  uint64
	n     uint64
}

func (m *PullMonitor) snapshot() pullSnapshot {
	cells, _ := stat4p4.Read(m.RT, stat4p4.Counters, m.Slot)
	moms, _ := stat4p4.Read(m.RT, stat4p4.Moments, m.Slot)
	headReg, err := m.RT.Switch().Register(stat4p4.RegHead)
	var head uint64
	if err == nil {
		head, _ = headReg.Read(m.Slot)
	}
	return pullSnapshot{cells: cells[:m.Window], head: head, n: moms.N}
}

// analyze flags intervals completed since the previous pull that exceed the
// mean + K·σ of the rest of the window.
func (m *PullMonitor) analyze(s pullSnapshot) {
	if s.n < uint64(m.Window) {
		return // window not full yet
	}
	if !m.havePrev {
		m.havePrev = true
		m.lastHead = s.head
		return
	}
	for h := m.lastHead; h != s.head; h = (h + 1) % uint64(m.Window) {
		v := s.cells[h]
		mean, sd := meanSDExcluding(s.cells, int(h))
		if float64(v) > mean+m.K*sd {
			if m.OnDetect != nil {
				m.OnDetect(m.Sim.Now(), v)
			}
		}
	}
	m.lastHead = s.head
}

// meanSDExcluding computes mean and population σ of the cells without index
// skip.
func meanSDExcluding(cells []uint64, skip int) (mean, sd float64) {
	n := float64(len(cells) - 1)
	if n <= 0 {
		return 0, 0
	}
	var sum, sumsq float64
	for i, c := range cells {
		if i == skip {
			continue
		}
		f := float64(c)
		sum += f
		sumsq += f * f
	}
	mean = sum / n
	v := sumsq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

// OverheadBytesPerSec returns the controller-channel load of the pull loop.
func (m *PullMonitor) OverheadBytesPerSec() float64 {
	return float64(m.RegistersPerPull) * 8 * 1e9 / float64(m.Period)
}
