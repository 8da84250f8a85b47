// Package traffic generates the synthetic workloads of the paper's
// evaluation: load-balanced traffic across a set of destinations with an
// injected volumetric spike (the Section 4 case study), SYN floods, echo
// validation streams, and the value distributions behind Tables 2 and 3.
// Every generator is seeded and deterministic, so experiments are exactly
// reproducible.
//
// On top of the raw generators, Registry returns the anomaly scenario
// matrix (scenario.go): named attack traces — pulse-wave DDoS, slow port
// scan, flash crowd, zipf popularity shift, slowloris, a multi-vector
// blend — each carrying machine-readable ground truth (attack windows,
// culprit keys, the detector tracks it should be caught by) and a benign
// control twin for false-alarm scoring. internal/detect replays these
// scenarios to grade detector configurations end-to-end, and golden trace
// digests pin every generator's exact byte stream.
package traffic

import (
	"math/rand"

	"stat4/internal/packet"
)

// Pkt is one timed packet event on the simulator's virtual clock.
type Pkt struct {
	TsNs  uint64
	Frame *packet.Packet
}

// Stream yields packet events in non-decreasing timestamp order.
type Stream interface {
	// Next returns the next event, or ok == false when the stream ends.
	Next() (p Pkt, ok bool)
}

// CaseStudyDests returns the default case-study destination set: 36 hosts,
// six per /24, in six /24 subnets (10.0.0.0/24 … 10.0.5.0/24) of 10.0.0.0/8.
func CaseStudyDests() []packet.IP4 {
	var dests []packet.IP4
	for subnet := byte(0); subnet < 6; subnet++ {
		for host := byte(1); host <= 6; host++ {
			dests = append(dests, packet.ParseIP4(10, 0, subnet, host))
		}
	}
	return dests
}

// LoadBalanced emits UDP packets whose destinations are drawn uniformly from
// Dests at Rate packets per second, from Start until End (virtual ns).
// Jitter selects the arrival process: 0 gives Poisson arrivals; a value in
// (0, 1] gives a paced source whose inter-arrival gaps vary uniformly by
// ±Jitter around the mean, like the constant-rate generators used in
// testbed evaluations.
type LoadBalanced struct {
	Dests  []packet.IP4
	Rate   float64 // packets per second
	Start  uint64
	End    uint64
	Seed   int64
	Jitter float64

	rng    *rand.Rand
	now    float64
	frames []*packet.Packet
}

// Next implements Stream.
func (g *LoadBalanced) Next() (Pkt, bool) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.Seed))
		g.now = float64(g.Start)
		g.frames = make([]*packet.Packet, len(g.Dests))
		for i, d := range g.Dests {
			g.frames[i] = packet.NewUDPFrame(packet.ParseIP4(192, 0, 2, 1), d, 40000, 80, 64)
		}
	}
	g.now += gap(g.rng, g.Rate, g.Jitter)
	ts := uint64(g.now)
	if ts >= g.End {
		return Pkt{}, false
	}
	return Pkt{TsNs: ts, Frame: g.frames[g.rng.Intn(len(g.frames))]}, true
}

// gap draws one inter-arrival gap in nanoseconds.
func gap(rng *rand.Rand, rate, jitter float64) float64 {
	mean := 1e9 / rate
	if jitter <= 0 {
		return rng.ExpFloat64() * mean
	}
	return mean * (1 + jitter*(2*rng.Float64()-1))
}

// Spike emits extra UDP traffic toward a single destination — the volumetric
// anomaly of the case study. Jitter behaves as in LoadBalanced.
type Spike struct {
	Dest   packet.IP4
	Rate   float64
	Start  uint64
	End    uint64
	Seed   int64
	Jitter float64

	rng   *rand.Rand
	now   float64
	frame *packet.Packet
}

// Next implements Stream.
func (g *Spike) Next() (Pkt, bool) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.Seed))
		g.now = float64(g.Start)
		g.frame = packet.NewUDPFrame(packet.ParseIP4(198, 51, 100, 7), g.Dest, 40001, 80, 64)
	}
	g.now += gap(g.rng, g.Rate, g.Jitter)
	ts := uint64(g.now)
	if ts >= g.End {
		return Pkt{}, false
	}
	return Pkt{TsNs: ts, Frame: g.frame}, true
}

// Sourced emits UDP packets toward one destination whose SOURCE addresses
// are Base + v with v drawn from Values per packet — ZipfValues gives the
// elephant-and-mice mix of the heavy-hitter scenarios, UniformValues a flat
// source spread. Jitter behaves as in LoadBalanced.
type Sourced struct {
	Dest   packet.IP4
	Base   packet.IP4 // source address of value 0
	Values ValueStream
	Rate   float64
	Start  uint64
	End    uint64
	Seed   int64
	Jitter float64

	rng *rand.Rand
	now float64
}

// Next implements Stream.
func (g *Sourced) Next() (Pkt, bool) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.Seed))
		g.now = float64(g.Start)
	}
	g.now += gap(g.rng, g.Rate, g.Jitter)
	ts := uint64(g.now)
	if ts >= g.End {
		return Pkt{}, false
	}
	src := packet.IP4(uint32(g.Base) + uint32(g.Values(g.rng)))
	return Pkt{TsNs: ts, Frame: packet.NewUDPFrame(src, g.Dest, 40002, 80, 64)}, true
}

// SynFlood emits TCP SYN packets toward one destination from rotating
// spoofed sources — the SYN-flood use case of Table 1.
type SynFlood struct {
	Dest  packet.IP4
	Rate  float64
	Start uint64
	End   uint64
	Seed  int64

	rng *rand.Rand
	now float64
}

// Next implements Stream.
func (g *SynFlood) Next() (Pkt, bool) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.Seed))
		g.now = float64(g.Start)
	}
	g.now += g.rng.ExpFloat64() * 1e9 / g.Rate
	ts := uint64(g.now)
	if ts >= g.End {
		return Pkt{}, false
	}
	src := packet.IP4(g.rng.Uint32())
	f := packet.NewTCPFrame(src, g.Dest, uint16(1024+g.rng.Intn(60000)), 80, packet.FlagSYN)
	return Pkt{TsNs: ts, Frame: f}, true
}

// WebMix emits background TCP traffic: short flows of one SYN followed by a
// few data packets, load-balanced across destinations.
type WebMix struct {
	Dests []packet.IP4
	Rate  float64 // total packets per second
	Start uint64
	End   uint64
	Seed  int64

	rng     *rand.Rand
	now     float64
	pending int // data packets left in the current flow
	dst     packet.IP4
	sport   uint16
}

// Next implements Stream.
func (g *WebMix) Next() (Pkt, bool) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.Seed))
		g.now = float64(g.Start)
	}
	g.now += g.rng.ExpFloat64() * 1e9 / g.Rate
	ts := uint64(g.now)
	if ts >= g.End {
		return Pkt{}, false
	}
	if g.pending == 0 {
		// New flow: a SYN.
		g.dst = g.Dests[g.rng.Intn(len(g.Dests))]
		g.sport = uint16(1024 + g.rng.Intn(60000))
		g.pending = 3 + g.rng.Intn(8)
		f := packet.NewTCPFrame(packet.ParseIP4(192, 0, 2, 2), g.dst, g.sport, 80, packet.FlagSYN)
		return Pkt{TsNs: ts, Frame: f}, true
	}
	g.pending--
	f := packet.NewTCPFrame(packet.ParseIP4(192, 0, 2, 2), g.dst, g.sport, 80, packet.FlagACK|packet.FlagPSH)
	f.Payload = make([]byte, 512)
	f.WireLen += 512
	return Pkt{TsNs: ts, Frame: f}, true
}

// Merge interleaves streams by timestamp.
func Merge(streams ...Stream) Stream {
	m := &merger{streams: streams, heads: make([]Pkt, len(streams)), live: make([]bool, len(streams))}
	for i, s := range streams {
		m.heads[i], m.live[i] = s.Next()
	}
	return m
}

type merger struct {
	streams []Stream
	heads   []Pkt
	live    []bool
}

func (m *merger) Next() (Pkt, bool) {
	best := -1
	for i, ok := range m.live {
		if !ok {
			continue
		}
		if best < 0 || m.heads[i].TsNs < m.heads[best].TsNs {
			best = i
		}
	}
	if best < 0 {
		return Pkt{}, false
	}
	out := m.heads[best]
	m.heads[best], m.live[best] = m.streams[best].Next()
	return out, true
}
