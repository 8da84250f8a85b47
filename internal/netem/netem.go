package netem

import "stat4/internal/telemetry"

// Sim is the event loop. It is single-threaded: handlers run on the caller's
// goroutine inside Run, and may schedule further events.
type Sim struct {
	now   uint64
	seq   uint64 // FIFO tie-break for equal timestamps
	steps uint64

	// deadline is the bound of the RunUntil in progress (^uint64(0) outside
	// one). The stream pump reads it so a batched run never processes a
	// packet a bounded run was not allowed to reach.
	deadline uint64

	pending int // scheduled-but-not-dispatched events

	// The typed event slab (free-listed through event.next) and the timer
	// wheel filing indices into it.
	slab  []event
	free  int32
	wheel wheel

	// Depth, when set, records the event-queue occupancy after each
	// dispatched event — the simulator's own backlog observable.
	Depth *telemetry.Hist
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim {
	s := &Sim{deadline: ^uint64(0), free: -1}
	s.wheel.reset()
	return s
}

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() uint64 { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past runs
// the handler at the current time (the event fires next).
func (s *Sim) At(t uint64, fn func()) {
	idx := s.allocEvent()
	e := &s.slab[idx]
	e.kind = evFn
	e.fn = fn
	s.schedule(t, idx)
}

// After schedules fn d nanoseconds from now.
func (s *Sim) After(d uint64, fn func()) { s.At(s.now+d, fn) }

// Run drains the event queue.
func (s *Sim) Run() { s.RunUntil(^uint64(0)) }

// RunUntil processes events with timestamps ≤ deadline and advances the
// clock to the deadline (or the last event, whichever is later). The clock
// is monotone across calls: a deadline earlier than the current time is
// clamped to it, so a re-entrant RunUntil(earlier) degenerates to "run
// whatever is due right now" instead of rewinding or losing events that At
// already clamped to the present.
func (s *Sim) RunUntil(deadline uint64) {
	if deadline < s.now {
		deadline = s.now
	}
	prev := s.deadline
	s.deadline = deadline
	s.runWheel(deadline)
	s.deadline = prev
	if deadline != ^uint64(0) && s.now < deadline {
		s.now = deadline
	}
}

func (s *Sim) runWheel(deadline uint64) {
	for {
		idx := s.wheelPop(deadline)
		if idx < 0 {
			return
		}
		s.now = s.slab[idx].at
		s.steps++
		s.pending--
		if s.Depth != nil {
			s.Depth.Observe(uint64(s.pending))
		}
		s.dispatch(idx)
	}
}
